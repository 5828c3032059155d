"""Reduction graphs: structure, extraction, paths, and DOT output."""

import pytest

from partlab import (
    AuxVertex,
    BudgetExceeded,
    CyclicReduction,
    Dag,
    DagEdge,
    NoRuleApplies,
    RootVertex,
    Rule,
    RuleKind,
    RewriteSystem,
    TerminalVertex,
    TerminatingPath,
    Auxiliary,
    build_dag,
    builtin_system,
    emit_dot,
    enumerate_terminating_paths,
    euler_seq,
    extract_coefficients,
    extract_from_dag,
    grouped_path_sums,
    integrated_f,
    make_engine,
    signed_multiplicities,
)

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
    assert isinstance(dag.root, RootVertex) and dag.root.n_tilde == 2
    assert len(dag.vertices) == 7
    assert {v for v in dag.aux_vertices()} == {
        AuxVertex(2, 1),
        AuxVertex(2, 2),
        AuxVertex(1, 1),
        AuxVertex(0, 1),
    }
    assert {v.j for v in dag.terminal_vertices()} == {1, 2}
    assert dag.constant_at(dag.root) == 0
    assert dag.aux_sinks == {AuxVertex(0, 1)}  # the void sink


def test_minpart_two_paths():
    paths = enumerate_terminating_paths(builtin_system("minpart"), 2)
    assert [(p.sign, p.j) for p in paths] == [(-1, None), (1, 2), (1, 1)]
    assert all(p.vertices[0] == RootVertex(2) for p in paths)


def test_minpart_two_dot():
    dag = build_dag(builtin_system("minpart"), 2)
    assert emit_dot(dag) == MINPART_2_DOT


def test_dot_is_deterministic():
    a = emit_dot(build_dag(builtin_system("maxpart"), 9))
    b = emit_dot(build_dag(builtin_system("maxpart"), 9))
    assert a == b
    assert a.startswith('digraph "maxpart_9" {')


def test_maxpart_four_structure():
    dag = build_dag(builtin_system("maxpart"), 4)
    assert dag.constant_at(dag.root) == 1
    assert set(dag.aux_vertices()) == {AuxVertex(4, 2), AuxVertex(4, 3), AuxVertex(4, 4)}
    assert {v.j for v in dag.terminal_vertices()} == {2, 3, 4}


@pytest.mark.parametrize("name", ["minpart", "bounded", "maxpart"])
def test_reconstruction(name):
    system = builtin_system(name)
    euler = make_engine("euler")
    for n_tilde in range(1, 21):
        got = extract_coefficients(system, n_tilde)
        assert got.reconstruct(euler.p) == euler.p(n_tilde)


def test_maxpart_extraction_is_integrated_sequence():
    f = integrated_f(18)
    for n_tilde in range(1, 19):
        got = extract_coefficients(builtin_system("maxpart"), n_tilde)
        assert got.constant == 1
        assert all(got.coeffs[j] == f[j] for j in range(1, n_tilde + 1))


def test_minpart_extraction_is_pentagonal_sequence():
    e = euler_seq(18)
    for n_tilde in range(1, 19):
        got = extract_coefficients(builtin_system("minpart"), n_tilde)
        assert got.constant == 0
        assert all(got.coeffs[j] == e[j] for j in range(1, n_tilde + 1))


def test_extraction_stability():
    # coefficients never change once n~ grows past them
    previous = None
    for n_tilde in range(1, 16):
        got = extract_coefficients(builtin_system("maxpart"), n_tilde)
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


def test_vertex_budget():
    with pytest.raises(BudgetExceeded):
        build_dag(builtin_system("minpart"), 30, vertex_budget=10)
    # the root and terminal vertices count too
    with pytest.raises(BudgetExceeded):
        build_dag(builtin_system("maxpart"), 2, vertex_budget=2)
    with pytest.raises(BudgetExceeded):
        build_dag(builtin_system("minpart"), 1, vertex_budget=2)
    assert len(build_dag(builtin_system("maxpart"), 2, vertex_budget=3).vertices) == 3


def test_path_budget():
    with pytest.raises(BudgetExceeded):
        enumerate_terminating_paths(builtin_system("minpart"), 8, path_budget=2)


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
    with pytest.raises(NoRuleApplies):
        build_dag(headless, 2)  # nothing fires at the root
    with pytest.raises(NoRuleApplies):
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


@pytest.mark.parametrize("name", ["minpart", "bounded", "maxpart"])
def test_kept_order_is_topological(name):
    dag = build_dag(builtin_system(name), 12)
    for order in (dag._order, dag.topological_order()):
        assert sorted(order, key=dag.vertices.index) == dag.vertices
        position = {v: i for i, v in enumerate(order)}
        assert all(position[e.source] < position[e.target] for e in dag.edges)


def test_hand_built_dag_is_sorted_on_demand():
    dag = Dag("hand", 3)
    a, b, t = AuxVertex(1, 1), AuxVertex(2, 2), TerminalVertex(1)
    dag.vertices += [t, a, b]  # listed against the edge direction
    edges = [(dag.root, a, 1), (dag.root, b, 1), (b, a, 1), (a, t, -1)]
    for i, (source, target, sign) in enumerate(edges):
        dag._add_edge(DagEdge(source, target, sign, "hand", i))
    assert signed_multiplicities(dag) == {dag.root: 1, t: -2, a: 2, b: 1}
    dag._add_edge(DagEdge(t, b, 1, "hand", 4))  # closes a cycle
    with pytest.raises(CyclicReduction):
        signed_multiplicities(dag)


def test_terminal_vertices_shared():
    # both (4,2) and (4,4)... different startup columns can reach the same j;
    # check that equal j always lands on one vertex object
    dag = build_dag(builtin_system("minpart"), 6)
    names = [v.dot_name() for v in dag.terminal_vertices()]
    assert len(names) == len(set(names))
    assert all(isinstance(v, TerminalVertex) for v in dag.terminal_vertices())


def test_paths_are_edge_connected():
    dag = build_dag(builtin_system("maxpart"), 10)
    edge_set = {(e.source, e.target) for e in dag.edges}
    for path in enumerate_terminating_paths(builtin_system("maxpart"), 10):
        assert isinstance(path, TerminatingPath)
        for a, b in zip(path.vertices, path.vertices[1:]):
            assert (a, b) in edge_set


def test_root_and_terminal_with_equal_index_stay_apart():
    # maxpart at n~ = 6 reaches P(0), whose terminal vertex has j = 6 = n~
    dag = build_dag(builtin_system("maxpart"), 6)
    assert dag.root != TerminalVertex(6)
    assert TerminalVertex(6) in dag.vertices
    mult = signed_multiplicities(dag)
    assert len(mult) == len(dag.vertices)
    assert mult[dag.root] == 1
