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

A system's firing table for each group is the tuple of that group's rules,
split off once when the system is built. _applicable returns the owning
group's rules whose domain holds at an atom: _fire names them in
AmbiguousRule, check_unitary grounds each, check_orthogonal flags an atom
where there are several. _fire returns (rule, constant, fan) of the one rule
that applies, or raises NoRuleApplies; _ground checks every fan target
against the family the rule kind rewrites into. eval_atom and the DAG builder
both fire through _fire and pass its errors on.

A startup rule may degenerate at particular arguments to an empty fan; such a
ground instance behaves exactly like a primary one (constant only).

Domain predicates and fan bodies are plain Python callables taking n (for
primary-family rules) or n, k (for auxiliary-family ones). There is no
pattern language; a rule family is one callable pair. A body's fan may be any
iterable of (sign, atom) pairs, read once: grounding turns it into a tuple.
The narrow built-in bodies return tuples of one or two entries; the wide ones
(the startup expansions, bounded's tail, the naive removal) return
zip(repeat(1), map(_A, ...)), an iterator that builds each entry in C.

Atoms are NamedTuples, so the memo lookups, cycle checks and DAG keys that
evaluation makes for every atom hash and compare in C, and every atom is its
own DAG vertex. Rules receive the atom's fields as *args, where args = atom[:]
is a plain tuple made once per atom: unpacking the atom itself, a tuple
subclass, would copy it into a new tuple at every domain and body call. An
atom equals the plain tuple of its fields; Primary(n) and Auxiliary(n, k)
never compare equal, since their lengths differ. Grounding still checks every
fan target with isinstance, so a body that returns a plain tuple is rejected.
The built-in bodies build their targets in C (_P, _A), as they make most atoms.

The record types Rule, Region, UnitarityReport and OrthogonalityReport are
NamedTuples too, so loading this module never loads dataclasses (and inspect
with it), and each record equals the plain tuple of its fields. A report holds
the list it is built with; check_unitary and check_orthogonal each pass a new
one. RewriteSystem is an immutable value instead (see _value): it keeps the
rules of each group in a private slot that stays outside its equality, hash,
repr and pickling, so a copy or an unpickled system splits its own.
"""

from __future__ import annotations

from enum import Enum
from functools import partial
from itertools import product, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Union

from . import budget
from ._value import Value
from .errors import AmbiguousRule, CyclicReduction, InvalidArgument, NoRuleApplies, integer


class Primary(NamedTuple):
    n: int

    def __repr__(self) -> str:
        return f"P({self.n})"


class Auxiliary(NamedTuple):
    n: int
    k: int

    def __repr__(self) -> str:
        return f"A({self.n},{self.k})"


# _P((n,)) is Primary(n), _A((n, k)) Auxiliary(n, k), built in C with no Python __new__ call
_P = partial(tuple.__new__, Primary)
_A = partial(tuple.__new__, Auxiliary)
Atom = Union[Primary, Auxiliary]
Fan = tuple[tuple[int, Atom], ...]
MemoTable = dict[Atom, int]  # write-once per key


class RuleKind(str, Enum):
    PRIMARY = "primary"
    STARTUP = "startup"
    AUXILIARY = "auxiliary"
    TERMINATION = "termination"


# What each rule kind rewrites: (family of the atom it fires on, family of its
# fan targets).
_FAMILIES = {
    RuleKind.PRIMARY: (Primary, Primary),
    RuleKind.STARTUP: (Primary, Auxiliary),
    RuleKind.AUXILIARY: (Auxiliary, Auxiliary),
    RuleKind.TERMINATION: (Auxiliary, Primary),
}


class Rule(NamedTuple):
    """One parameterized rule family.

    domain and body receive the atom arguments: (n,) when the left side is a
    primary atom, (n, k) when auxiliary. body returns (constant, fan), where
    fan is any iterable of (sign, atom) pairs; grounding reads it once, into
    a tuple.
    """

    name: str
    kind: RuleKind
    domain: Callable[..., bool]
    body: Callable[..., tuple[int, Iterable[tuple[int, Atom]]]]

    @property
    def lhs_primary(self) -> bool:
        return _FAMILIES[self.kind][0] is Primary


class RewriteSystem(Value):
    """A named rule tuple, split once at construction into the firing tables
    _r1 and _r2: the tuples of its R1 and R2 rules, in rule order.

    Compared and hashed by (name, rules); the tables stay out of equality,
    hash, repr and pickling, and every copy splits its own.
    """

    __slots__ = ("name", "rules", "_r1", "_r2")

    name: str
    rules: tuple[Rule, ...]

    def __init__(self, name: str, rules: tuple[Rule, ...]) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "_r1", tuple(r for r in rules if r.lhs_primary))
        object.__setattr__(self, "_r2", tuple(r for r in rules if not r.lhs_primary))


def _ground(rule: Rule, atom: Atom, args: tuple) -> tuple[Rule, int, Fan]:
    """(rule, constant, fan) of rule at atom, its body called with *args, the
    atom's fields as the plain tuple its caller made (see _fire). The body's
    fan may be any iterable of (sign, atom) pairs and is returned as a tuple;
    every target must belong to the family the rule kind rewrites into. Like
    _fire and _applicable, it reads rule[1] (kind), rule[2] (domain) and
    rule[3] (body) by position, which costs less than by name on every
    grounding."""
    constant, fan = rule[3](*args)
    fan = tuple(fan)
    family = _FAMILIES[rule[1]][1]
    for _, target in fan:
        if not isinstance(target, family):
            raise InvalidArgument(
                f"rule {rule.name!r} ({rule.kind.value}) produced a "
                f"{type(target).__name__} target at {atom!r}"
            )
    return rule, constant, fan


def _applicable(system: RewriteSystem, atom: Atom) -> list[Rule]:
    """The rules of the group that owns atom whose domain holds there, in rule
    order."""
    group = system._r1 if isinstance(atom, Primary) else system._r2
    args = atom[:]
    return [rule for rule in group if rule[2](*args)]


def _fire(system: RewriteSystem, atom: Atom) -> tuple[Rule, int, Fan]:
    """(rule, constant, fan) of the unique applicable rule at atom.

    AmbiguousRule names every rule that applies, in rule order; NoRuleApplies
    when none does. The scan is written out here, and _applicable is called
    only to name the rules: building its list at every firing made the
    reductions benchmark about 7% slower.

    Every domain of the group and then the fired body are called with
    *args, the atom's fields as a plain tuple, made once here: unpacking
    the atom itself, a tuple subclass, copies it into a new tuple at each
    call, 55 to 70 ns more per call under Python 3.11.
    """
    args = atom[:]
    fired = None
    for rule in system._r1 if isinstance(atom, Primary) else system._r2:
        if rule[2](*args):
            if fired is not None:
                names = ", ".join(r.name for r in _applicable(system, atom))
                raise AmbiguousRule(
                    f"{system.name}: rules [{names}] all apply at {atom!r}"
                )
            fired = rule
    if fired is None:
        raise NoRuleApplies(f"{system.name}: no rule applies at {atom!r}")
    return _ground(fired, atom, args)


class Region(NamedTuple):
    """Inclusive argument bounds for the hygiene checks: n and k run from 0."""

    n_max: int
    k_max: int

    def atoms(self) -> Iterator[Atom]:
        """Every primary atom of the region, then every auxiliary one; a
        negative bound holds none, a bound of another type is InvalidArgument."""
        n_max, k_max = integer("n_max", self.n_max), integer("k_max", self.k_max)
        yield from (_P((n,)) for n in range(n_max + 1))
        yield from map(_A, product(range(n_max + 1), range(k_max + 1)))


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
        args = atom[:]
        for rule in _applicable(system, atom):
            _, _, fan = _ground(rule, atom, args)
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
        names = tuple(rule.name for rule in _applicable(system, atom))
        if len(names) > 1:
            report.overlaps.append((atom, names))
    return report


_MISSING = object()


def eval_atom(
    system: RewriteSystem,
    atom: Atom,
    memo: MemoTable | None = None,
) -> int:
    """Exact value of an atom under the system, memoized into memo.

    The recursion is run on an explicit stack. A chain is a run of rule
    applications between primary atoms; primary atoms restart the chain
    (their values memoize whole). The chain and atom budgets of budget.py
    bound each chain's rule applications and the atoms the whole evaluation
    reaches, its root and every fan entry it grounds; exceeding either raises
    BudgetExceeded. Revisiting an atom under evaluation raises CyclicReduction,
    a root with a non-int field InvalidArgument.

    Atoms are fired through _fire, as build_dag fires them, in the one loop
    that also sums fans: a fan is summed over its memoized prefix, and the
    first atom missing from the memo is grounded there, after the checks
    above in a fixed order (cycle, chain limit, no rule, atom budget). The
    frame being summed lives in local variables; only the frames below it are
    kept on the explicit stack, each with the iterator over its fan.
    """
    for name, field in zip("nk", atom):
        integer(name, field)
    if memo is None:
        memo = {}
    value = memo.get(atom, _MISSING)
    if value is not _MISSING:
        return value

    override = budget.env_budget()  # read once; when set, it bounds every chain
    atom_limit, chain_default = budget.atom_limit(override), budget.chain_default
    reached = 1  # atoms reached: the root, then the fan of every atom grounded
    in_progress: set[Atom] = set()
    stack: list[tuple] = []  # (atom, fan iterator, sign, acc, depth, limit)
    get = memo.get
    # the atom to ground next, and the depth and limit of the chain it extends
    target, depth, limit = atom, 0, override or chain_default(atom)
    while True:
        if target in in_progress:
            raise CyclicReduction(f"{system.name}: cyclic reduction through {target!r}")
        if isinstance(target, Primary):
            depth, limit = 1, override or chain_default(target)
        else:
            depth += 1
        if depth > limit:
            raise budget.exceeded("chain", limit, depth, system.name, target)
        _, acc, fan = _fire(system, target)
        reached += len(fan)
        if reached > atom_limit:
            raise budget.exceeded("atom", atom_limit, reached, system.name, atom)
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
                lambda n: (0, zip(repeat(1), map(_A, zip(repeat(n), range(1, n + 1))))),
            ),
            Rule(
                "ones",
                RuleKind.TERMINATION,
                lambda n, k: n > 0 and k == 1,
                lambda n, k: (0, ((1, _P((n - 1,))),)),
            ),
            Rule(
                "step",
                RuleKind.AUXILIARY,
                lambda n, k: 2 <= k <= n,
                lambda n, k: (0, ((1, _A((n - 1, k - 1))), (-1, _A((n - k, k - 1))))),
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
                lambda n: (1, ((1, _A((n, n))),)),
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
                # A(n - m(k - 1), k - 1) for m = 0 .. n // (k - 1)
                lambda n, k: (
                    0, zip(repeat(1), map(_A, zip(range(n, -1, 1 - k), repeat(k - 1))))
                ),
            ),
            Rule(
                "all",
                RuleKind.TERMINATION,
                lambda n, k: k > n,
                lambda n, k: (0, ((1, _P((n,))),)),
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
            lambda n: (1, zip(repeat(1), map(_A, zip(repeat(n), range(2, n + 1))))),
        ),
        Rule(
            "single",
            RuleKind.TERMINATION,
            lambda n, k: 2 <= k <= n <= 2 * k,
            lambda n, k: (0, ((1, _P((n - k,))),)),
        ),
        Rule(
            "shift",
            RuleKind.AUXILIARY,
            lambda n, k: k >= 2 and n > 2 * k,
            lambda n, k: (0, ((1, _A((n + 1, k + 1))), (-1, _A((n - k, k + 1))))),
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
        raise InvalidArgument(f"completion rules only exist for maxpart, not {name!r}")
    if name == "minpart":
        return _minpart_system()
    if name == "bounded":
        return _bounded_system()
    if name == "maxpart":
        return _maxpart_system(completion)
    raise InvalidArgument(f"unknown system {name!r}; choose from {BUILTIN_NAMES}")


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
                    0, zip(repeat(1), map(_A, zip(repeat(n - k), range(k, n - k + 1))))
                ),
            ),
            Rule(
                "split",
                RuleKind.AUXILIARY,
                lambda n, k: k >= 2,
                lambda n, k: (0, ((1, _A((n - 1, k - 1))), (-1, _A((n - k, k - 1))))),
            ),
        ),
    )
