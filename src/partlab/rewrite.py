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

A system builds one firing table per group once, when it is built: a tuple
of plain (rule, domain, body, family) entries, family being the atom type the
rule kind rewrites into. Grounding goes through one path: _fire calls every
domain of the owning group's table at an atom, and _ground instantiates the
entry that applies, checking the family of every fan target. _fire returns
(rule, constant, fan) or raises: AmbiguousRule when several rules apply,
NoRuleApplies when none does. eval_atom and the DAG builder both fire through
_fire and pass its errors on; check_unitary grounds every applicable entry
through _ground, so that it can report on atoms where several rules apply,
and check_orthogonal scans the same tables.

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

The record types Rule, Region, UnitarityReport and OrthogonalityReport are
NamedTuples too, so loading this module never loads dataclasses (and inspect
with it), and each record equals the plain tuple of its fields. A report holds
the list it is built with; check_unitary and check_orthogonal each pass a new
one. RewriteSystem is an immutable value instead (see _value): it keeps its
two firing tables in private slots that stay outside its equality, hash, repr
and pickling, so a copy or an unpickled system builds its own.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterator, NamedTuple, Union

from . import budget
from ._value import Value
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


class Rule(NamedTuple):
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


class RewriteSystem(Value):
    """A named rule tuple, with a firing table for R1 and one for R2 built
    once at construction.

    Compared and hashed by (name, rules); the tables stay out of equality,
    hash, repr and pickling, and every copy builds its own.
    """

    __slots__ = ("name", "rules", "_r1", "_r2")

    name: str
    rules: tuple[Rule, ...]

    def __init__(self, name: str, rules: tuple[Rule, ...]) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "_r1", _firing_table(r for r in rules if r.lhs_primary))
        object.__setattr__(self, "_r2", _firing_table(r for r in rules if not r.lhs_primary))

    def _table(self, atom: Atom) -> tuple[_Entry, ...]:
        """The firing table of the group that owns this atom family."""
        return self._r1 if isinstance(atom, Primary) else self._r2


# A firing-table entry: (rule, rule.domain, rule.body, family of its fan
# targets), read by index on every grounding.
_Entry = tuple[Rule, Callable[..., bool], Callable[..., tuple[int, Fan]], type]


def _firing_table(rules: Iterator[Rule]) -> tuple[_Entry, ...]:
    return tuple((rule, rule.domain, rule.body, _RHS_FAMILY[rule.kind]) for rule in rules)


def _ground(entry: _Entry, atom: Atom) -> tuple[Rule, int, Fan]:
    """(rule, constant, fan) of an entry's rule at atom; every fan target must
    belong to the family the rule kind rewrites into."""
    constant, fan = entry[2](*atom)
    fan = tuple(fan)
    family = entry[3]
    for _, target in fan:
        if not isinstance(target, family):
            rule = entry[0]
            raise ValueError(
                f"rule {rule.name!r} ({rule.kind.value}) produced a "
                f"{type(target).__name__} target at {atom!r}"
            )
    return entry[0], constant, fan


def _fire(system: RewriteSystem, atom: Atom) -> tuple[Rule, int, Fan]:
    """(rule, constant, fan) of the unique applicable rule at atom.

    Calls every domain of the owning group, so AmbiguousRule names every rule
    that applies, in rule order; NoRuleApplies when none does.
    """
    table = system._r1 if isinstance(atom, Primary) else system._r2  # _table, inlined
    fired = None
    for entry in table:
        if entry[1](*atom):
            if fired is not None:
                names = ", ".join(e[0].name for e in table if e[1](*atom))
                raise AmbiguousRule(
                    f"{system.name}: rules [{names}] all apply at {atom!r}"
                )
            fired = entry
    if fired is None:
        raise NoRuleApplies(f"{system.name}: no rule applies at {atom!r}")
    return _ground(fired, atom)


class Region(NamedTuple):
    """Inclusive argument bounds for the hygiene checks: n and k run from 0."""

    n_max: int
    k_max: int

    def atoms(self) -> Iterator[Atom]:
        """Every primary atom of the region, then every auxiliary one."""
        for n in range(self.n_max + 1):
            yield Primary(n)
        for n in range(self.n_max + 1):
            for k in range(self.k_max + 1):
                yield Auxiliary(n, k)


class UnitarityReport(NamedTuple):
    violations: list[tuple[Atom, str, str]]

    @property
    def ok(self) -> bool:
        return not self.violations


class OrthogonalityReport(NamedTuple):
    overlaps: list[tuple[Atom, tuple[str, ...]]]

    @property
    def ok(self) -> bool:
        return not self.overlaps


def check_unitary(system: RewriteSystem, region: Region) -> UnitarityReport:
    """Ground every applicable rule on the region; flag non-unit coefficients
    and repeated fan targets."""
    report = UnitarityReport([])
    for atom in region.atoms():
        for entry in system._table(atom):
            if not entry[1](*atom):
                continue
            rule, _, fan = _ground(entry, atom)
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
    report = OrthogonalityReport([])
    for atom in region.atoms():
        names = tuple(e[0].name for e in system._table(atom) if e[1](*atom))
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
) -> int:
    """Exact value of an atom under the system, memoized into memo.

    The recursion is run on an explicit stack. A chain is a run of rule
    applications between primary atoms; primary atoms restart the chain
    (their values memoize whole). Each chain may apply at most
    10 * (|n| + |k| + 1) rules, measured at the atom that started it,
    unless PLAB_BUDGET overrides the bound. Exceeding it, or
    revisiting an atom already under evaluation, raises BudgetExceeded; the
    built-in systems never come near the default bound.

    The whole evaluation may reach at most budget.ATOM_BUDGET atoms: the one
    it starts from and every fan entry of every atom it grounds. Each entry
    costs one memo lookup, so this bounds the time as well as the memo, which
    for P(n) grows like n^2 / 3. PLAB_BUDGET may raise that limit but not
    lower it. PLAB_BUDGET is read once per call, not once per chain.

    Atoms are fired through the system's firing tables, by the helpers that
    check_unitary and build_dag share, in the one loop that also sums fans: a
    fan is summed over its memoized prefix, and the first atom missing from
    the memo is grounded there, after the checks above in a fixed order
    (cycle, chain limit, no rule, atom budget). The frame being summed lives
    in local variables; only the frames below it are kept on the explicit
    stack, each with the iterator over its fan.
    """
    if memo is None:
        memo = {}
    value = memo.get(atom, _MISSING)
    if value is not _MISSING:
        return value

    override = budget.env_budget()  # read once; when set, it bounds every chain
    atom_limit = max(override or 0, budget.ATOM_BUDGET)  # raised, never lowered
    reached = 1  # atoms reached: the root, then the fan of every atom grounded
    in_progress: set[Atom] = set()
    stack: list[tuple] = []  # (atom, fan iterator, sign, acc, depth, limit)
    get = memo.get
    # the atom to ground next, and the depth and limit of the chain it extends
    target, depth, limit = atom, 0, override or _default_chain_limit(atom)
    while True:
        if target in in_progress:
            raise BudgetExceeded(f"{system.name}: cyclic reduction through {target!r}")
        if isinstance(target, Primary):
            depth, limit = 1, override or _default_chain_limit(target)
        else:
            depth += 1
        if depth > limit:
            raise BudgetExceeded(
                f"{system.name}: chain exceeded {limit} applications at {target!r}"
            )
        _, acc, fan = _fire(system, target)
        reached += len(fan)
        if reached > atom_limit:
            raise BudgetExceeded(
                f"{system.name}: evaluating {atom!r} reached {reached} atoms, past "
                f"the atom budget of {atom_limit} ({budget.ENV_VAR} can raise it)"
            )
        in_progress.add(target)
        top, entries = target, iter(fan)
        while True:
            # sum the memoized prefix of the fan; stop at the first atom missing
            for sign, target in entries:
                value = get(target, _MISSING)
                if value is _MISSING:
                    break
                acc += sign * value
            else:
                memo[top] = acc
                in_progress.discard(top)
                if not stack:
                    return acc
                # fold the finished value into the frame that reached it
                done = acc
                top, entries, sign, acc, depth, limit = stack.pop()
                acc += sign * done
                continue
            stack.append((top, entries, sign, acc, depth, limit))
            break  # ground target, then come back to this frame


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
