"""Reduction graphs: structure, extraction, paths, and DOT output."""

from itertools import groupby
from operator import attrgetter

import pytest
from hypothesis import given, settings, strategies as st

from partlab import (
    BUILTIN_NAMES,
    BudgetExceeded,
    CyclicReduction,
    DagEdge,
    DecodedWalk,
    Lemma51Report,
    NoRuleApplies,
    Primary,
    Rule,
    RuleKind,
    RewriteSystem,
    TerminatingPath,
    Auxiliary,
    build_dag,
    builtin_system,
    code_of_path,
    decode_path,
    dot_name,
    emit_dot,
    enumerate_terminating_paths,
    euler_seq,
    eval_atom,
    extract_from_dag,
    grouped_path_sums,
    integrated_f,
    lemma51,
    make_engine,
    signed_multiplicities,
    terminating_paths,
)
from partlab import budget
from partlab.rewrite import _fire

MINPART_2_DOT = """\
digraph "minpart_2" {
  "R_2" [shape=box, label="P(2)"];
  "A_0_1" [shape=ellipse, label="A(0,1)"];
  "A_1_1" [shape=ellipse, label="A(1,1)"];
  "A_2_1" [shape=ellipse, label="A(2,1)"];
  "A_2_2" [shape=ellipse, label="A(2,2)"];
  "P_1" [shape=box, label="j=1"];
  "P_2" [shape=box, label="j=2"];
  "R_2" -> "A_2_1" [label="+"];
  "R_2" -> "A_2_2" [label="+"];
  "A_1_1" -> "P_2" [label="+"];
  "A_2_1" -> "P_1" [label="+"];
  "A_2_2" -> "A_1_1" [label="+"];
  "A_2_2" -> "A_0_1" [label="-"];
}
"""


def test_minpart_two_structure():
    dag = build_dag(builtin_system("minpart"), 2)
    assert dag.root == dag.vertices[0] == Primary(2)
    assert len(dag.vertices) == 7
    assert {v for v in dag.vertices if isinstance(v, Auxiliary)} == {
        Auxiliary(2, 1),
        Auxiliary(2, 2),
        Auxiliary(1, 1),
        Auxiliary(0, 1),
    }
    assert dag.terminal_vertices() == [Primary(1), Primary(0)]  # j = 1, 2
    assert dag.constant_at(dag.root) == 0
    # the void sink: the one non-root, non-terminal vertex without out-edges
    sources = {e.source for e in dag.edges}
    sinks = [v for v in dag.vertices[1:] if v not in sources]
    assert [v for v in sinks if not isinstance(v, Primary)] == [Auxiliary(0, 1)]


def test_minpart_two_paths():
    paths = enumerate_terminating_paths(builtin_system("minpart"), 2)
    assert [(p.sign, p.j) for p in paths] == [(-1, None), (1, 2), (1, 1)]
    assert all(p.vertices[0] == Primary(2) for p in paths)


def test_minpart_two_dot():
    dag = build_dag(builtin_system("minpart"), 2)
    assert emit_dot(dag) == MINPART_2_DOT


def test_dot_is_deterministic():
    a = emit_dot(build_dag(builtin_system("maxpart"), 9))
    b = emit_dot(build_dag(builtin_system("maxpart"), 9))
    assert a == b
    assert a.startswith('digraph "maxpart_9" {')


def test_zero_sign_edge_is_labelled_zero():
    # a unitary system may ground a 0 coefficient; its edge is drawn as 0,
    # matching the terminal coefficient that extraction gives
    zero = RewriteSystem(
        "zero",
        (
            Rule("base", RuleKind.PRIMARY, lambda n: n == 0, lambda n: (1, ())),
            Rule(
                "drop",
                RuleKind.PRIMARY,
                lambda n: n > 0,
                lambda n: (0, ((0, Primary(n - 1)),)),
            ),
        ),
    )
    dag = build_dag(zero, 2)
    assert dag.terminal_vertices() == [Primary(1)]
    assert '  "R_2" -> "P_1" [label="0"];\n' in emit_dot(dag)
    assert extract_from_dag(dag).coeffs[1] == 0


def test_maxpart_four_structure():
    dag = build_dag(builtin_system("maxpart"), 4)
    assert dag.constant_at(dag.root) == 1
    assert {v for v in dag.vertices if isinstance(v, Auxiliary)} == {
        Auxiliary(4, 2),
        Auxiliary(4, 3),
        Auxiliary(4, 4),
    }
    assert set(dag.terminal_vertices()) == {Primary(2), Primary(1), Primary(0)}


@pytest.mark.parametrize("name", ["minpart", "bounded", "maxpart"])
def test_reconstruction(name):
    system = builtin_system(name)
    euler = make_engine("euler")
    for n_tilde in range(1, 21):
        got = extract_from_dag(build_dag(system, n_tilde))
        assert got.reconstruct(euler.p) == euler.p(n_tilde)


def test_maxpart_extraction_is_integrated_sequence():
    f = integrated_f(60)
    for n_tilde in (*range(1, 19), 60):
        got = extract_from_dag(build_dag(builtin_system("maxpart"), n_tilde))
        assert got.constant == 1
        assert all(got.coeffs[j] == f[j] for j in range(1, n_tilde + 1))


def test_minpart_extraction_is_pentagonal_sequence():
    e = euler_seq(60)
    for n_tilde in (*range(1, 19), 60):
        got = extract_from_dag(build_dag(builtin_system("minpart"), n_tilde))
        assert got.constant == 0
        assert all(got.coeffs[j] == e[j] for j in range(1, n_tilde + 1))


def test_extraction_stability():
    # coefficients never change once n~ grows past them
    previous = None
    for n_tilde in range(1, 16):
        got = extract_from_dag(build_dag(builtin_system("maxpart"), n_tilde))
        if previous is not None:
            assert all(got.coeffs[j] == previous.coeffs[j] for j in previous.coeffs)
        previous = got


@pytest.mark.parametrize("name", ["minpart", "bounded", "maxpart"])
def test_path_sums_match_multiplicities(name):
    system = builtin_system(name)
    dag = build_dag(system, 8)
    sums = grouped_path_sums(enumerate_terminating_paths(system, 8))
    extracted = extract_from_dag(dag)
    for j in range(1, 9):
        assert sums.get(j, 0) == extracted.coeffs[j]


def test_multiplicity_of_root_is_one():
    dag = build_dag(builtin_system("bounded"), 6)
    mult = signed_multiplicities(dag)
    assert mult[dag.root] == 1


def test_bare_root_has_no_paths():
    # at 0 and 1 the maxpart startup fan is empty
    for n_tilde in (0, 1):
        assert enumerate_terminating_paths(builtin_system("maxpart"), n_tilde) == []
        dag = build_dag(builtin_system("maxpart"), n_tilde)
        assert dag.vertices == [dag.root]
        assert extract_from_dag(dag).constant == 1


def test_vertex_budget(monkeypatch):
    monkeypatch.setattr(budget, "DAG_VERTEX_BUDGET", 10)
    with pytest.raises(BudgetExceeded, match="^minpart reduction from 30 exceeded 10 vertices$"):
        build_dag(builtin_system("minpart"), 30)
    # the root and terminal vertices count too
    monkeypatch.setattr(budget, "DAG_VERTEX_BUDGET", 2)
    with pytest.raises(BudgetExceeded):
        build_dag(builtin_system("maxpart"), 2)
    with pytest.raises(BudgetExceeded):
        build_dag(builtin_system("minpart"), 1)
    monkeypatch.setattr(budget, "DAG_VERTEX_BUDGET", 3)
    assert len(build_dag(builtin_system("maxpart"), 2).vertices) == 3


def test_path_budget(monkeypatch):
    monkeypatch.setattr(budget, "PATH_BUDGET", 2)
    with pytest.raises(BudgetExceeded, match="^minpart path enumeration from 8 exceeded 2$"):
        enumerate_terminating_paths(builtin_system("minpart"), 8)
    # minpart from 8 has 44 paths: a budget of 44 lists them all, 43 stops
    monkeypatch.setattr(budget, "PATH_BUDGET", 44)
    assert len(enumerate_terminating_paths(builtin_system("minpart"), 8)) == 44
    monkeypatch.setattr(budget, "PATH_BUDGET", 43)
    with pytest.raises(BudgetExceeded, match="exceeded 43$"):
        enumerate_terminating_paths(builtin_system("minpart"), 8)


def test_budget_env_var(monkeypatch):
    monkeypatch.setenv("PLAB_BUDGET", "5")
    with pytest.raises(BudgetExceeded):
        build_dag(builtin_system("minpart"), 30)


def test_no_rule_applies_propagates():
    headless = RewriteSystem(
        "headless",
        (
            Rule(
                "start",
                RuleKind.STARTUP,
                lambda n: n > 3,
                lambda n: (0, ((1, Auxiliary(n, 1)),)),
            ),
        ),
    )
    # the root and an auxiliary atom fail with the message eval_atom gives
    with pytest.raises(NoRuleApplies, match=r"^headless: no rule applies at P\(2\)$"):
        build_dag(headless, 2)  # nothing fires at the root
    with pytest.raises(NoRuleApplies, match=r"^headless: no rule applies at A\(5,1\)$"):
        build_dag(headless, 5)  # the auxiliary atom is a dead end


def test_cyclic_graph_rejected():
    # two aux rules that bounce between k = 2 and k = 3 at fixed n
    bouncing = RewriteSystem(
        "bouncing",
        (
            Rule(
                "start",
                RuleKind.STARTUP,
                lambda n: True,
                lambda n: (0, ((1, Auxiliary(n, 2)),)),
            ),
            Rule(
                "up",
                RuleKind.AUXILIARY,
                lambda n, k: k == 2,
                lambda n, k: (0, ((1, Auxiliary(n, 3)),)),
            ),
            Rule(
                "down",
                RuleKind.AUXILIARY,
                lambda n, k: k == 3,
                lambda n, k: (0, ((1, Auxiliary(n, 2)),)),
            ),
        ),
    )
    with pytest.raises(CyclicReduction):
        build_dag(bouncing, 4)


_BACK = Rule(
    "back", RuleKind.TERMINATION, lambda n, k: k == 3, lambda n, k: (0, ((1, Primary(n)),))
)
FAN_BACK = {
    # P(n) -> A(n, 2), A(n, 3); A(n, 2) is a sink, and A(n, 3) goes back to
    # P(n) itself, not to the vertex after it
    "sibling": (
        Rule(
            "start",
            RuleKind.STARTUP,
            lambda n: True,
            lambda n: (0, ((1, Auxiliary(n, 2)), (1, Auxiliary(n, 3)))),
        ),
        Rule("stop", RuleKind.TERMINATION, lambda n, k: k == 2, lambda n, k: (0, ())),
        _BACK,
    ),
    # P(n) -> A(n, 2) -> A(n, 3), A(n, 4); A(n, 3) goes back to P(n), and
    # A(n, 4) loops on itself, so a second pass over the root would balance a
    # count of sorted vertices that misses A(n, 4)
    "spin": (
        Rule("start", RuleKind.STARTUP, lambda n: True, lambda n: (0, ((1, Auxiliary(n, 2)),))),
        Rule(
            "fork",
            RuleKind.AUXILIARY,
            lambda n, k: k == 2,
            lambda n, k: (0, ((1, Auxiliary(n, 3)), (1, Auxiliary(n, 4)))),
        ),
        _BACK,
        Rule(
            "spin", RuleKind.AUXILIARY, lambda n, k: k == 4, lambda n, k: (0, ((1, Auxiliary(n, 4)),))
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(FAN_BACK))
def test_fan_back_to_the_root_is_a_cycle(name):
    loop = RewriteSystem(name, FAN_BACK[name])
    with pytest.raises(CyclicReduction):
        eval_atom(loop, Primary(3))
    with pytest.raises(CyclicReduction, match=f"^{name} reduction from 3 is cyclic$"):
        build_dag(loop, 3)


SYSTEMS = {
    **{name: builtin_system(name) for name in BUILTIN_NAMES},
    "maxpart-completed": builtin_system("maxpart", completion=True),
}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(SYSTEMS)), n_tilde=st.integers(min_value=0, max_value=14))
def test_edges_follow_each_fan(name, n_tilde):
    # dag.edges holds each source's out-edges together, in the order of the
    # fan its rule grounds to, with the fan's signs and the rule's name;
    # emit_dot's edge order rests on this
    system = SYSTEMS[name]
    dag = build_dag(system, n_tilde)
    sources = []
    for source, edges in groupby(dag.edges, key=attrgetter("source")):
        sources.append(source)
        rule, _, fan = _fire(system, source)
        assert [(e.target, e.sign, e.rule) for e in edges] == [
            (target, sign, rule.name) for sign, target in fan
        ]
    # no source comes back, and every vertex with a nonempty fan is a source
    assert len(sources) == len(set(sources))
    expanded = [dag.root, *(v for v in dag.vertices if isinstance(v, Auxiliary))]
    assert set(sources) == {v for v in expanded if _fire(system, v)[2]}
    # past the root, a primary vertex is a terminal P(u), u < n~
    assert all(isinstance(v, Auxiliary) or v.n < n_tilde for v in dag.vertices[1:])


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_graph_and_evaluator_reach_the_same_atoms(name):
    # every vertex is an atom that evaluating the root memoizes
    system = SYSTEMS[name]
    for n_tilde in range(31):
        memo = {}
        eval_atom(system, Primary(n_tilde), memo)
        assert set(build_dag(system, n_tilde).vertices) <= memo.keys()


def test_any_non_terminal_sink_ends_an_open_path():
    # an auxiliary rule whose fan is empty ends a path with j = None, as an
    # empty termination fan does
    stub = RewriteSystem(
        "stub",
        (
            Rule("start", RuleKind.STARTUP, lambda n: True, lambda n: (0, ((-1, Auxiliary(n, 2)),))),
            Rule("void", RuleKind.AUXILIARY, lambda n, k: True, lambda n, k: (1, ())),
        ),
    )
    assert enumerate_terminating_paths(stub, 3) == [
        TerminatingPath((Primary(3), Auxiliary(3, 2)), -1, None)
    ]


@pytest.mark.parametrize("name", ["minpart", "bounded", "maxpart"])
def test_kept_order_is_topological(name):
    dag = build_dag(builtin_system(name), 12)
    order = [dag.vertices[i] for i in dag._order]
    assert sorted(order, key=dag.vertices.index) == dag.vertices
    position = {v: i for i, v in enumerate(order)}
    assert all(position[e.source] < position[e.target] for e in dag.edges)


def test_terminal_vertices_shared():
    # both (4,2) and (4,4)... different startup columns can reach the same j;
    # check that equal j always lands on one vertex object
    dag = build_dag(builtin_system("minpart"), 6)
    names = [dot_name(v, 6) for v in dag.terminal_vertices()]
    assert len(names) == len(set(names))
    assert all(name.startswith("P_") for name in names)


def test_paths_are_edge_connected():
    dag = build_dag(builtin_system("maxpart"), 10)
    edge_set = {(e.source, e.target) for e in dag.edges}
    for path in enumerate_terminating_paths(builtin_system("maxpart"), 10):
        assert isinstance(path, TerminatingPath)
        for a, b in zip(path.vertices, path.vertices[1:]):
            assert (a, b) in edge_set


def test_root_and_terminal_with_equal_index_stay_apart():
    # maxpart at n~ = 6 reaches P(0), terminal j = 6 = n~
    dag = build_dag(builtin_system("maxpart"), 6)
    assert Primary(0) in dag.vertices
    assert (dot_name(dag.root, 6), dot_name(Primary(0), 6)) == ("R_6", "P_6")
    mult = signed_multiplicities(dag)
    assert len(mult) == len(dag.vertices)
    assert mult[dag.root] == 1


def test_records_are_built_as_their_classes_do(assert_as_class_built):
    # edges, paths, walks and reports are built by tuple.__new__, in C
    dag = build_dag(builtin_system("maxpart"), 20)
    paths = terminating_paths(dag)
    codes = [code_of_path(p) for p in paths]
    for cls, records in (
        (DagEdge, dag.edges),
        (TerminatingPath, paths),
        (DecodedWalk, [decode_path(20, c) for c in codes]),
        (Lemma51Report, [lemma51(20, c) for c in codes]),
    ):
        assert records and {type(r) for r in records} == {cls}
        assert_as_class_built(records)
