"""Rewrite systems: grounding, hygiene checks, and the atom evaluator."""

import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from partlab import (
    BUILTIN_NAMES,
    AmbiguousRule,
    Auxiliary,
    BudgetExceeded,
    NoRuleApplies,
    OrthogonalityReport,
    Primary,
    Region,
    Rule,
    RuleKind,
    RewriteSystem,
    UnitarityReport,
    build_dag,
    builtin_system,
    check_orthogonal,
    check_unitary,
    eval_atom,
    make_engine,
    overlapping_minpart_rules,
)
from partlab.rewrite import _fire

REGION = Region(n_max=40, k_max=40)


@pytest.mark.parametrize("name", ["minpart", "bounded", "maxpart"])
def test_eval_matches_counts(name):
    system = builtin_system(name)
    euler = make_engine("euler")
    memo = {}
    for n in range(26):
        assert eval_atom(system, Primary(n), memo) == euler.p(n)


def test_eval_with_completion_rules():
    system = builtin_system("maxpart", completion=True)
    euler = make_engine("euler")
    for n in range(16):
        assert eval_atom(system, Primary(n)) == euler.p(n)
    # the completion rules open up atoms the core system leaves undefined
    assert eval_atom(system, Auxiliary(1, 5)) == 0
    assert eval_atom(system, Auxiliary(3, 1)) == 1


@pytest.mark.parametrize(
    "name, atoms", [("minpart", 17_101), ("bounded", 7_650), ("maxpart", 16_651)]
)
def test_atoms_evaluated_pinned(name, atoms):
    # the set of atoms evaluated is fixed by the system, not by how it is grounded
    memo = {}
    eval_atom(builtin_system(name), Primary(150), memo)
    assert len(memo) == atoms


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@settings(max_examples=20, deadline=None)
@given(ns=st.lists(st.integers(min_value=0, max_value=80), min_size=1, max_size=6))
def test_any_call_order_on_one_memo(name, ns):
    system = builtin_system(name)
    euler = make_engine("euler")
    memo = {}
    assert [eval_atom(system, Primary(n), memo) for n in ns] == [euler.p(n) for n in ns]


def test_atom_contract():
    assert repr(Primary(5)) == "P(5)"
    assert repr(Auxiliary(5, 2)) == "A(5,2)"
    with pytest.raises(AttributeError):
        Primary(5).n = 6
    with pytest.raises(AttributeError):
        Auxiliary(5, 2).n = 6
    assert Primary(3) != Auxiliary(3, 0)


def test_rewrite_system_contract():
    system = builtin_system("minpart")
    same = RewriteSystem(name="minpart", rules=system.rules)
    assert system == same and hash(system) == hash(same)
    assert system != RewriteSystem("other", system.rules)
    assert system != RewriteSystem("minpart", system.rules[:2])
    assert system != ("minpart", system.rules)
    assert repr(system) == f"RewriteSystem(name='minpart', rules={system.rules!r})"
    assert _fire(same, Primary(1))[0] is system.rules[1]  # its own tables, built on construction
    with pytest.raises(AttributeError):
        system.name = "other"
    with pytest.raises(AttributeError):
        del system.rules
    assert copy.copy(system) == system
    # a copy or an unpickled system goes through __init__ and builds its own
    # firing tables, which equality, hash and repr ignore
    original = RewriteSystem("maxpart-by-name", _MAXPART_BY_NAME)
    want_p30 = eval_atom(original, Primary(30))
    assert want_p30 == make_engine("euler").p(30)
    for twin in (
        copy.copy(original),
        copy.deepcopy(original),
        pickle.loads(pickle.dumps(original)),
    ):
        assert twin == original and hash(twin) == hash(original)
        assert repr(twin) == repr(original)
        assert twin._r1 is not original._r1 and twin._r2 is not original._r2
        assert eval_atom(twin, Primary(30)) == want_p30
        assert _dag_sizes(build_dag(twin, 20)) == _dag_sizes(build_dag(original, 20))


# maxpart's rules as module-level functions, which pickle by name
def _expand_domain(n):
    return n >= 0


def _expand_body(n):
    return 1, tuple((1, Auxiliary(n, k)) for k in range(2, n + 1))


def _single_domain(n, k):
    return 2 <= k <= n <= 2 * k


def _single_body(n, k):
    return 0, ((1, Primary(n - k)),)


def _shift_domain(n, k):
    return k >= 2 and n > 2 * k


def _shift_body(n, k):
    return 0, ((1, Auxiliary(n + 1, k + 1)), (-1, Auxiliary(n - k, k + 1)))


_MAXPART_BY_NAME = (
    Rule("expand", RuleKind.STARTUP, _expand_domain, _expand_body),
    Rule("single", RuleKind.TERMINATION, _single_domain, _single_body),
    Rule("shift", RuleKind.AUXILIARY, _shift_domain, _shift_body),
)


def _dag_sizes(dag):
    return len(dag.vertices), len(dag.edges), len(dag.terminal_vertices())


def _started(system, atom):
    """system with a startup rule taking every P(n) to atom, so that build_dag
    reaches atom from any root."""
    start = Rule("start", RuleKind.STARTUP, lambda n: True, lambda n: (0, ((1, atom),)))
    return RewriteSystem(system.name, (start, *system.rules))


def test_reports_get_fresh_lists():
    # each check builds its report with a list of its own
    region = Region(n_max=2, k_max=2)
    minpart = builtin_system("minpart")
    for check, report_type in (
        (check_unitary, UnitarityReport),
        (check_orthogonal, OrthogonalityReport),
    ):
        first, second = check(minpart, region), check(minpart, region)
        assert type(first) is report_type and first == ([],)
        first[0].append("x")
        assert second[0] == [] and second.ok and not first.ok
        given_list = []
        assert report_type(given_list)[0] is given_list


def test_memo_reuse():
    system = builtin_system("minpart")
    memo = {}
    eval_atom(system, Primary(12), memo)
    size = len(memo)
    assert eval_atom(system, Primary(12), memo) == memo[Primary(12)]
    assert len(memo) == size


def test_ground_rule_unique_or_raises():
    maxpart = builtin_system("maxpart")
    rule, constant, fan = _fire(maxpart, Auxiliary(10, 2))
    assert rule.name == "shift"
    assert fan == ((1, Auxiliary(11, 3)), (-1, Auxiliary(8, 3)))
    # no completion rules: grounding raises, and its callers pass the message on
    no_rule = r"^maxpart: no rule applies at A\(1,5\)$"
    with pytest.raises(NoRuleApplies, match=no_rule):
        _fire(maxpart, Auxiliary(1, 5))
    with pytest.raises(NoRuleApplies, match=no_rule):
        eval_atom(maxpart, Auxiliary(1, 5))
    with pytest.raises(NoRuleApplies, match=r"^maxpart: no rule applies at P\(-1\)$"):
        build_dag(maxpart, -1)  # at the root; tests/test_dag.py fails at an auxiliary atom


def test_startup_degenerates_to_constant():
    maxpart = builtin_system("maxpart")
    rule, constant, fan = _fire(maxpart, Primary(0))
    assert rule.kind == RuleKind.STARTUP
    assert constant == 1 and fan == ()


def test_group_dispatch():
    # an atom fires only the rules of the group that owns its family, even
    # where a rule of the other group would apply to the same arguments
    minpart = builtin_system("minpart")
    assert {_fire(minpart, Primary(n))[0].name for n in range(6)} == {"base", "expand"}
    aux_rules = {_fire(minpart, Auxiliary(n, k))[0].name for n in range(6) for k in range(1, 8)}
    assert aux_rules == {"ones", "step", "void"}
    both = RewriteSystem(
        "both",
        (
            Rule("p", RuleKind.PRIMARY, lambda *args: True, lambda *args: (1, ())),
            Rule("a", RuleKind.TERMINATION, lambda *args: True, lambda *args: (2, ())),
        ),
    )
    assert _fire(both, Primary(3))[:2] == (both.rules[0], 1)
    assert _fire(both, Auxiliary(3, 3))[:2] == (both.rules[1], 2)
    assert {r.name for r in minpart.rules if r.kind is RuleKind.TERMINATION} == {
        "ones",
        "void",
    }


def test_builtin_hygiene():
    for name in ("minpart", "bounded", "maxpart"):
        system = builtin_system(name)
        assert check_unitary(system, REGION).ok
        assert check_orthogonal(system, REGION).ok
    completed = builtin_system("maxpart", completion=True)
    assert check_orthogonal(completed, REGION).ok


def test_overlap_detected():
    naive = overlapping_minpart_rules()
    report = check_orthogonal(naive, REGION)
    assert not report.ok
    assert (Auxiliary(5, 2), ("removal", "split")) in report.overlaps
    # it names every rule that applies, in rule order
    with pytest.raises(AmbiguousRule, match=r"rules \[removal, split\]"):
        eval_atom(naive, Auxiliary(5, 2))
    with pytest.raises(
        AmbiguousRule, match=r"^minpart-naive: rules \[removal, split\] all apply at A\(5,2\)$"
    ):
        build_dag(_started(naive, Auxiliary(5, 2)), 5)


def test_unitarity_violations_reported():
    bad = RewriteSystem(
        "bad",
        (
            Rule(
                "double",
                RuleKind.AUXILIARY,
                lambda n, k: n == 3,
                lambda n, k: (0, ((2, Auxiliary(n - 1, k)),)),
            ),
            Rule(
                "twice",
                RuleKind.AUXILIARY,
                lambda n, k: n == 4,
                lambda n, k: (0, ((1, Auxiliary(0, k)), (1, Auxiliary(0, k)))),
            ),
        ),
    )
    report = check_unitary(bad, Region(n_max=5, k_max=2))
    assert not report.ok
    reasons = {(atom, rule) for atom, rule, _ in report.violations}
    assert (Auxiliary(3, 0), "double") in reasons
    assert (Auxiliary(4, 0), "twice") in reasons


def test_rhs_family_enforced():
    wrong = RewriteSystem(
        "wrong",
        (
            Rule(
                "leak",
                RuleKind.TERMINATION,
                lambda n, k: True,
                lambda n, k: (0, ((1, Auxiliary(n, k + 1)),)),
            ),
        ),
    )
    leak = r"^rule 'leak' \(termination\) produced a Auxiliary target at A\(1,1\)$"
    with pytest.raises(ValueError, match=leak):
        eval_atom(wrong, Auxiliary(1, 1))
    with pytest.raises(ValueError, match=leak):
        build_dag(_started(wrong, Auxiliary(1, 1)), 3)
    # a plain tuple equals an atom but belongs to no family
    bare = RewriteSystem(
        "bare",
        (
            Rule(
                "bare",
                RuleKind.TERMINATION,
                lambda n, k: True,
                lambda n, k: (0, ((1, (3,)),)),
            ),
        ),
    )
    with pytest.raises(ValueError, match=r"produced a tuple target at A\(1,1\)$"):
        eval_atom(bare, Auxiliary(1, 1))
    with pytest.raises(ValueError, match=r"produced a tuple target at A\(1,1\)$"):
        build_dag(_started(bare, Auxiliary(1, 1)), 3)
    leaky_startup = RewriteSystem(
        "leaky-startup",
        (
            Rule(
                "start",
                RuleKind.STARTUP,
                lambda n: True,
                lambda n: (0, ((1, Primary(n - 1)),)),
            ),
        ),
    )
    with pytest.raises(ValueError, match=r"^rule 'start' \(startup\) produced a Primary"):
        build_dag(leaky_startup, 3)
    with pytest.raises(ValueError, match=r"^rule 'start' \(startup\) produced a Primary"):
        eval_atom(leaky_startup, Primary(3))


def test_runaway_chain_hits_budget(monkeypatch):
    runaway = RewriteSystem(
        "runaway",
        (
            Rule(
                "start",
                RuleKind.STARTUP,
                lambda n: True,
                lambda n: (0, ((1, Auxiliary(n, 0)),)),
            ),
            Rule(
                "climb",
                RuleKind.AUXILIARY,
                lambda n, k: True,
                lambda n, k: (0, ((1, Auxiliary(n, k + 1)),)),
            ),
        ),
    )
    # P(3) opens a chain of at most 10 * (3 + 1) applications; A(3, k) is its
    # (k + 2)nd
    with pytest.raises(
        BudgetExceeded, match=r"^runaway: chain exceeded 40 applications at A\(3,39\)$"
    ):
        eval_atom(runaway, Primary(3))
    # a generous budget changes nothing: the chain never ends
    monkeypatch.setenv("PLAB_BUDGET", "5000")
    with pytest.raises(
        BudgetExceeded, match=r"^runaway: chain exceeded 5000 applications at A\(3,4999\)$"
    ):
        eval_atom(runaway, Primary(3))


def test_cyclic_reduction_detected():
    loop = RewriteSystem(
        "loop",
        (
            Rule(
                "self",
                RuleKind.AUXILIARY,
                lambda n, k: True,
                lambda n, k: (0, ((1, Auxiliary(n, k)),)),
            ),
        ),
    )
    with pytest.raises(BudgetExceeded, match=r"^loop: cyclic reduction through A\(2,2\)$"):
        eval_atom(loop, Auxiliary(2, 2))


def test_chain_budget_env_override(monkeypatch):
    monkeypatch.setenv("PLAB_BUDGET", "2")
    # minpart needs longer chains than 2 once n grows
    with pytest.raises(
        BudgetExceeded, match=r"^minpart: chain exceeded 2 applications at A\(0,1\)$"
    ):
        eval_atom(builtin_system("minpart"), Primary(12))


def test_region_iteration():
    region = Region(n_max=2, k_max=2)
    assert list(region.atoms()) == [
        Primary(0), Primary(1), Primary(2),
        *(Auxiliary(n, k) for n in range(3) for k in range(3)),
    ]


def test_builtin_system_validation():
    with pytest.raises(ValueError):
        builtin_system("unknown")
    with pytest.raises(ValueError):
        builtin_system("minpart", completion=True)
