"""Rewrite systems: grounding, hygiene checks, and the atom evaluator."""

import pytest
from hypothesis import given, settings, strategies as st

from partlab import (
    BUILTIN_NAMES,
    AmbiguousRule,
    Auxiliary,
    BudgetExceeded,
    NoRuleApplies,
    Primary,
    Region,
    Rule,
    RuleKind,
    RewriteSystem,
    build_dag,
    builtin_system,
    check_orthogonal,
    check_unitary,
    eval_atom,
    ground_rule,
    make_engine,
    overlapping_minpart_rules,
)

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


def test_memo_reuse():
    system = builtin_system("minpart")
    memo = {}
    eval_atom(system, Primary(12), memo)
    size = len(memo)
    assert eval_atom(system, Primary(12), memo) == memo[Primary(12)]
    assert len(memo) == size


def test_ground_rule_unique_or_none():
    maxpart = builtin_system("maxpart")
    g = ground_rule(maxpart, Auxiliary(10, 2))
    assert g.rule_name == "shift"
    assert g.fan == ((1, Auxiliary(11, 3)), (-1, Auxiliary(8, 3)))
    assert ground_rule(maxpart, Auxiliary(1, 5)) is None  # no completion rules
    with pytest.raises(NoRuleApplies):
        eval_atom(maxpart, Auxiliary(1, 5))


def test_startup_degenerates_to_constant():
    maxpart = builtin_system("maxpart")
    g = ground_rule(maxpart, Primary(0))
    assert g.kind == RuleKind.STARTUP
    assert g.constant == 1 and g.fan == ()


def test_group_dispatch():
    minpart = builtin_system("minpart")
    primary_rules = {r.name for r in minpart.group(Primary(5))}
    aux_rules = {r.name for r in minpart.group(Auxiliary(5, 2))}
    assert primary_rules == {"base", "expand"}
    assert aux_rules == {"ones", "step", "void"}
    assert {r.name for r in minpart.rules_of_kind(RuleKind.TERMINATION)} == {
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
    # both name every rule that applies, in rule order
    with pytest.raises(AmbiguousRule, match=r"rules \[removal, split\]"):
        ground_rule(naive, Auxiliary(5, 2))
    with pytest.raises(AmbiguousRule, match=r"rules \[removal, split\]"):
        eval_atom(naive, Auxiliary(5, 2))


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
    with pytest.raises(ValueError):
        ground_rule(wrong, Auxiliary(1, 1))
    with pytest.raises(ValueError):
        eval_atom(wrong, Auxiliary(1, 1))
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
    with pytest.raises(ValueError):
        ground_rule(bare, Auxiliary(1, 1))
    with pytest.raises(ValueError):
        eval_atom(bare, Auxiliary(1, 1))
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
    with pytest.raises(ValueError):
        build_dag(leaky_startup, 3)


def test_runaway_chain_hits_budget():
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
    with pytest.raises(BudgetExceeded):
        eval_atom(runaway, Primary(3))
    # a generous explicit budget changes nothing: the chain never ends
    with pytest.raises(BudgetExceeded):
        eval_atom(runaway, Primary(3), chain_budget=5000)


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
    with pytest.raises(BudgetExceeded):
        eval_atom(loop, Auxiliary(2, 2))


def test_chain_budget_env_override(monkeypatch):
    monkeypatch.setenv("PLAB_BUDGET", "2")
    # minpart needs longer chains than 2 once n grows
    with pytest.raises(BudgetExceeded):
        eval_atom(builtin_system("minpart"), Primary(12))


def test_region_iteration():
    region = Region(n_max=2, k_max=2)
    assert len(list(region.primaries())) == 3
    assert len(list(region.auxiliaries())) == 9
    assert len(list(region.atoms())) == 12


def test_rule_matches_respects_family():
    minpart = builtin_system("minpart")
    base = next(r for r in minpart.rules if r.name == "base")
    step = next(r for r in minpart.rules if r.name == "step")
    assert base.matches(Primary(0))
    assert not base.matches(Auxiliary(0, 1))
    assert step.matches(Auxiliary(5, 3))
    assert not step.matches(Primary(5))


def test_builtin_system_validation():
    with pytest.raises(ValueError):
        builtin_system("unknown")
    with pytest.raises(ValueError):
        builtin_system("minpart", completion=True)
