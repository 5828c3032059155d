"""Recurrence systems as guarded rewrite rules.

A recurrence atom is either Primary(n), the count being defined, or
Auxiliary(n, k), a helper count with one extra argument. A rule rewrites one
atom family into a constant plus a signed fan of atoms, guarded by a domain
predicate over the atom's arguments:

  primary      Primary(n)      -> constant + signed Primary atoms
  startup      Primary(n)      -> constant + signed Auxiliary atoms
  auxiliary    Auxiliary(n, k) -> constant + signed Auxiliary atoms
  termination  Auxiliary(n, k) -> constant + signed Primary atoms

Rules split into two groups: R1 = primary + startup rules (they fire on
primary atoms) and R2 = auxiliary + termination rules (on auxiliary atoms).
A system is orthogonal on a region when at most one rule of the owning group
applies to each ground atom there, and unitary when every ground fan uses
coefficients in {-1, 0, 1} with pairwise distinct targets. check_orthogonal
and check_unitary report violations as data; eval_atom and the DAG builder
assume both properties and raise AmbiguousRule when orthogonality breaks.

A system indexes its rules into R1 and R2 once, when it is built. Grounding
goes through one path: _fire picks the unique rule of the owning group at an
atom and _ground instantiates it, checking the family of every fan target.
ground_rule, eval_atom and the DAG builder all fire through _fire;
check_unitary grounds every applicable rule through _ground, so that it can
report on atoms where several rules apply.

A startup rule may degenerate at particular arguments to an empty fan; such a
ground instance behaves exactly like a primary one (constant only).

Domain predicates and fan bodies are plain Python callables taking n (for
primary-family rules) or n, k (for auxiliary-family ones). There is no
pattern language; a rule family is one callable pair.

Atoms are NamedTuples, so the memo lookups, cycle checks and DAG keys that
evaluation makes for every atom hash and compare in C, and an atom is its own
argument tuple: rules receive *atom. The price is tuple equality. An atom
equals the plain tuple of its fields, Auxiliary(n, k) == (n, k), and so equals
the DAG vertex AuxVertex(n, k); Primary(n) and Auxiliary(n, k) never compare
equal, since their lengths differ. Grounding still checks every fan target
with isinstance, so a body that returns a plain tuple is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterator, NamedTuple, Union

from . import budget
from .errors import AmbiguousRule, BudgetExceeded, NoRuleApplies


class Primary(NamedTuple):
    n: int

    def __repr__(self) -> str:
        return f"P({self.n})"


class Auxiliary(NamedTuple):
    n: int
    k: int

    def __repr__(self) -> str:
        return f"A({self.n},{self.k})"


Atom = Union[Primary, Auxiliary]
Fan = tuple[tuple[int, Atom], ...]
MemoTable = dict[Atom, int]  # write-once per key


class RuleKind(str, Enum):
    PRIMARY = "primary"
    STARTUP = "startup"
    AUXILIARY = "auxiliary"
    TERMINATION = "termination"


_LHS_PRIMARY = (RuleKind.PRIMARY, RuleKind.STARTUP)
_RHS_FAMILY = {
    RuleKind.PRIMARY: Primary,
    RuleKind.STARTUP: Auxiliary,
    RuleKind.AUXILIARY: Auxiliary,
    RuleKind.TERMINATION: Primary,
}


@dataclass(frozen=True)
class Rule:
    """One parameterized rule family.

    domain and body receive the atom arguments: (n,) when the left side is a
    primary atom, (n, k) when auxiliary. body returns (constant, fan).
    """

    name: str
    kind: RuleKind
    domain: Callable[..., bool]
    body: Callable[..., tuple[int, Fan]]

    @property
    def lhs_primary(self) -> bool:
        return self.kind in _LHS_PRIMARY

    def matches(self, atom: Atom) -> bool:
        return isinstance(atom, Primary) == self.lhs_primary and bool(self.domain(*atom))


@dataclass(frozen=True)
class GroundRule:
    rule_name: str
    kind: RuleKind
    source: Atom
    constant: int
    fan: Fan


@dataclass(frozen=True)
class RewriteSystem:
    name: str
    rules: tuple[Rule, ...]
    # R1 and R2, split once at construction
    _r1: tuple[Rule, ...] = field(init=False, repr=False, compare=False)
    _r2: tuple[Rule, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_r1", tuple(r for r in self.rules if r.lhs_primary))
        object.__setattr__(self, "_r2", tuple(r for r in self.rules if not r.lhs_primary))

    def group(self, atom: Atom) -> tuple[Rule, ...]:
        """The rules whose group owns this atom family (R1 or R2)."""
        return self._r1 if isinstance(atom, Primary) else self._r2

    def rules_of_kind(self, kind: RuleKind) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.kind == kind)


def _ground(rule: Rule, atom: Atom) -> tuple[int, Fan]:
    """(constant, fan) of rule at atom; every fan target must belong to the
    family the rule kind rewrites into."""
    constant, fan = rule.body(*atom)
    fan = tuple(fan)
    family = _RHS_FAMILY[rule.kind]
    for sign, target in fan:
        if not isinstance(target, family):
            raise ValueError(
                f"rule {rule.name!r} ({rule.kind.value}) produced a "
                f"{type(target).__name__} target at {atom!r}"
            )
    return constant, fan


def _fire(system: RewriteSystem, atom: Atom) -> tuple[Rule, int, Fan] | None:
    """(rule, constant, fan) of the unique applicable rule at atom, or None.

    Scans the whole owning group, so AmbiguousRule names every rule that
    applies, in rule order.
    """
    rules = system.group(atom)
    fired = None
    for rule in rules:
        if rule.domain(*atom):
            if fired is not None:
                names = ", ".join(r.name for r in rules if r.domain(*atom))
                raise AmbiguousRule(
                    f"{system.name}: rules [{names}] all apply at {atom!r}"
                )
            fired = rule
    if fired is None:
        return None
    return (fired, *_ground(fired, atom))


def ground_rule(system: RewriteSystem, atom: Atom) -> GroundRule | None:
    """Instantiate the unique applicable rule at atom, or None.

    Raises AmbiguousRule when several rules of the owning group apply.
    """
    fired = _fire(system, atom)
    if fired is None:
        return None
    rule, constant, fan = fired
    return GroundRule(rule.name, rule.kind, atom, constant, fan)


@dataclass(frozen=True)
class Region:
    """Inclusive argument bounds for the hygiene checks."""

    n_max: int
    k_max: int
    n_min: int = 0
    k_min: int = 0

    def primaries(self) -> Iterator[Primary]:
        for n in range(self.n_min, self.n_max + 1):
            yield Primary(n)

    def auxiliaries(self) -> Iterator[Auxiliary]:
        for n in range(self.n_min, self.n_max + 1):
            for k in range(self.k_min, self.k_max + 1):
                yield Auxiliary(n, k)

    def atoms(self) -> Iterator[Atom]:
        yield from self.primaries()
        yield from self.auxiliaries()


@dataclass
class UnitarityReport:
    system: str
    region: Region
    violations: list[tuple[Atom, str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class OrthogonalityReport:
    system: str
    region: Region
    overlaps: list[tuple[Atom, tuple[str, ...]]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.overlaps


def check_unitary(system: RewriteSystem, region: Region) -> UnitarityReport:
    """Ground every applicable rule on the region; flag non-unit coefficients
    and repeated fan targets."""
    report = UnitarityReport(system.name, region)
    for atom in region.atoms():
        for rule in system.group(atom):
            if not rule.domain(*atom):
                continue
            _, fan = _ground(rule, atom)
            seen: set[Atom] = set()
            for sign, target in fan:
                if sign not in (-1, 0, 1):
                    report.violations.append(
                        (atom, rule.name, f"coefficient {sign} for {target!r}")
                    )
                if target in seen:
                    report.violations.append(
                        (atom, rule.name, f"repeated target {target!r}")
                    )
                seen.add(target)
    return report


def check_orthogonal(system: RewriteSystem, region: Region) -> OrthogonalityReport:
    """Flag ground atoms where more than one rule of the owning group applies."""
    report = OrthogonalityReport(system.name, region)
    for atom in region.atoms():
        names = tuple(r.name for r in system.group(atom) if r.domain(*atom))
        if len(names) > 1:
            report.overlaps.append((atom, names))
    return report


def _default_chain_limit(atom: Atom) -> int:
    return 10 * (sum(map(abs, atom)) + 1)


_MISSING = object()


def eval_atom(
    system: RewriteSystem,
    atom: Atom,
    memo: MemoTable | None = None,
    chain_budget: int | None = None,
) -> int:
    """Exact value of an atom under the system, memoized into memo.

    The recursion is run on an explicit stack. A chain is a run of rule
    applications between primary atoms; primary atoms restart the chain
    (their values memoize whole). Each chain may apply at most
    10 * (|n| + |k| + 1) rules, measured at the atom that started it,
    unless chain_budget or PLAB_BUDGET overrides the bound. Exceeding it, or
    revisiting an atom already under evaluation, raises BudgetExceeded; the
    built-in systems never come near the default bound.

    Rule groups are indexed once per system, and each atom is grounded by the
    helpers that ground_rule, check_unitary and build_dag share; the fan stays
    on the atom's stack frame, and no GroundRule is made.
    """
    if memo is None:
        memo = {}
    value = memo.get(atom, _MISSING)
    if value is not _MISSING:
        return value

    chain_limit = budget.resolver(chain_budget)
    in_progress: set[Atom] = set()
    stack: list[list] = []  # [atom, fan, fan index, acc, depth, limit]

    def push(target: Atom, depth: int, limit: int) -> None:
        if target in in_progress:
            raise BudgetExceeded(f"{system.name}: cyclic reduction through {target!r}")
        if isinstance(target, Primary):
            depth, limit = 1, chain_limit(_default_chain_limit(target))
        else:
            depth += 1
        if depth > limit:
            raise BudgetExceeded(
                f"{system.name}: chain exceeded {limit} applications at {target!r}"
            )
        fired = _fire(system, target)
        if fired is None:
            raise NoRuleApplies(f"{system.name}: no rule applies at {target!r}")
        in_progress.add(target)
        stack.append([target, fired[2], 0, fired[1], depth, limit])

    push(atom, 0, chain_limit(_default_chain_limit(atom)))
    get = memo.get
    while stack:
        frame = stack[-1]
        _, fan, i, acc, depth, limit = frame
        end = len(fan)
        while i < end:
            sign, target = fan[i]
            value = get(target, _MISSING)
            if value is _MISSING:
                break
            acc += sign * value
            i += 1
        if i < end:
            frame[2], frame[3] = i, acc
            push(target, depth, limit)
            continue
        done = frame[0]
        memo[done] = acc
        in_progress.discard(done)
        stack.pop()
        if stack:
            # fold the finished value into the frame that pushed it
            parent = stack[-1]
            parent[3] += parent[1][parent[2]][0] * acc
            parent[2] += 1
    return memo[atom]


# ---------------------------------------------------------------------------
# Built-in systems


def _minpart_system() -> RewriteSystem:
    return RewriteSystem(
        "minpart",
        (
            Rule("base", RuleKind.PRIMARY, lambda n: n == 0, lambda n: (1, ())),
            Rule(
                "expand",
                RuleKind.STARTUP,
                lambda n: n > 0,
                lambda n: (0, tuple((1, Auxiliary(n, i)) for i in range(1, n + 1))),
            ),
            Rule(
                "ones",
                RuleKind.TERMINATION,
                lambda n, k: n > 0 and k == 1,
                lambda n, k: (0, ((1, Primary(n - 1)),)),
            ),
            Rule(
                "step",
                RuleKind.AUXILIARY,
                lambda n, k: 2 <= k <= n,
                lambda n, k: (0, ((1, Auxiliary(n - 1, k - 1)), (-1, Auxiliary(n - k, k - 1)))),
            ),
            Rule("void", RuleKind.TERMINATION, lambda n, k: k > n, lambda n, k: (0, ())),
        ),
    )


def _bounded_system() -> RewriteSystem:
    # The two termination guards split (k = 2, n >= 2) from (k > n) so that
    # the small arguments (0, 2) and (1, 2) stay single-ruled.
    return RewriteSystem(
        "bounded",
        (
            Rule("small", RuleKind.PRIMARY, lambda n: 0 <= n <= 1, lambda n: (1, ())),
            Rule(
                "split",
                RuleKind.STARTUP,
                lambda n: n >= 2,
                lambda n: (1, ((1, Auxiliary(n, n)),)),
            ),
            Rule(
                "ones",
                RuleKind.TERMINATION,
                lambda n, k: k == 2 and n >= 2,
                lambda n, k: (1, ()),
            ),
            Rule(
                "tail",
                RuleKind.AUXILIARY,
                lambda n, k: 3 <= k <= n,
                lambda n, k: (
                    0,
                    tuple(
                        (1, Auxiliary(n - m * (k - 1), k - 1))
                        for m in range(0, n // (k - 1) + 1)
                    ),
                ),
            ),
            Rule(
                "all",
                RuleKind.TERMINATION,
                lambda n, k: k > n,
                lambda n, k: (0, ((1, Primary(n)),)),
            ),
        ),
    )


def _maxpart_system(completion: bool) -> RewriteSystem:
    rules = [
        # One startup family; at n <= 1 its fan is empty, a primary instance.
        Rule(
            "expand",
            RuleKind.STARTUP,
            lambda n: n >= 0,
            lambda n: (1, tuple((1, Auxiliary(n, k)) for k in range(2, n + 1))),
        ),
        Rule(
            "single",
            RuleKind.TERMINATION,
            lambda n, k: 2 <= k <= n <= 2 * k,
            lambda n, k: (0, ((1, Primary(n - k)),)),
        ),
        Rule(
            "shift",
            RuleKind.AUXILIARY,
            lambda n, k: k >= 2 and n > 2 * k,
            lambda n, k: (0, ((1, Auxiliary(n + 1, k + 1)), (-1, Auxiliary(n - k, k + 1)))),
        ),
    ]
    if completion:
        rules.append(
            Rule(
                "one",
                RuleKind.TERMINATION,
                lambda n, k: k == 1 and n > 0,
                lambda n, k: (1, ()),
            )
        )
        rules.append(
            Rule("void", RuleKind.TERMINATION, lambda n, k: k > n, lambda n, k: (0, ()))
        )
    name = "maxpart-completed" if completion else "maxpart"
    return RewriteSystem(name, tuple(rules))


BUILTIN_NAMES = ("minpart", "bounded", "maxpart")


def builtin_system(name: str, *, completion: bool = False) -> RewriteSystem:
    """One of the built-in systems: "minpart", "bounded", "maxpart".

    completion=True extends maxpart with the two optional rules that close
    its auxiliary domain (largest part 1, and k beyond n); the reduction
    analysis never needs them, so they default off.
    """
    if completion and name != "maxpart":
        raise ValueError(f"completion rules only exist for maxpart, not {name!r}")
    if name == "minpart":
        return _minpart_system()
    if name == "bounded":
        return _bounded_system()
    if name == "maxpart":
        return _maxpart_system(completion)
    raise ValueError(f"unknown system {name!r}; choose from {BUILTIN_NAMES}")


def overlapping_minpart_rules() -> RewriteSystem:
    """Deliberately non-orthogonal system, for the negative hygiene test.

    Reads the two classic smallest-part identities naively as rewrite rules:
    part removal with a free lower index, and the two-term split. Their
    domains overlap on every atom with 2 <= k < n, which check_orthogonal
    must detect.
    """
    return RewriteSystem(
        "minpart-naive",
        (
            Rule(
                "removal",
                RuleKind.AUXILIARY,
                lambda n, k: 1 <= k < n,
                lambda n, k: (
                    0,
                    tuple((1, Auxiliary(n - k, i)) for i in range(k, n - k + 1)),
                ),
            ),
            Rule(
                "split",
                RuleKind.AUXILIARY,
                lambda n, k: k >= 2,
                lambda n, k: (0, ((1, Auxiliary(n - 1, k - 1)), (-1, Auxiliary(n - k, k - 1)))),
            ),
        ),
    )
