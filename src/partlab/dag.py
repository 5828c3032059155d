"""Extended reduction DAGs and direct-recurrence extraction.

Reducing Primary(n~) under an orthogonal unitary rewrite system sweeps out a
finite graph: the root stands for p(n~) in the primary plane, auxiliary
vertices live at their (n, k) arguments, and every ground primary atom P(u)
reached by a termination fan lands on the terminal primary vertex with index
j = n~ - u. All terminations with the same u share one terminal vertex, which
is what turns the composite recurrence into a direct one:

    p(n~) = constant + sum_j coeffs[j] * p(n~ - j)

where coeffs[j] is the signed count of root-to-terminal paths into terminal
j (computed by a multiplicity sweep in topological order, not by listing
paths), and the constant collects every vertex constant weighted by the
vertex's signed multiplicity. Termination edges carry signs like any others,
but a constant sits on its source vertex, so termination edge signs never
touch the constant.

For the built-in maxpart system the extraction reproduces the integrated
coefficient sequence f with constant 1; for minpart it reproduces the
pentagonal sign sequence e with constant 0. The bounded system builds and
extracts fine but its all-positive fans make path counts explode, so nothing
here asserts anything about it beyond structural sanity.

build_dag fires atoms through the rewrite layer's _fire, which reads the
system's firing tables and raises NoRuleApplies, in one loop over the atoms
it reaches. It keys every vertex but the root by the atom it stands for, and
keeps one adjacency by vertex position: each vertex's out-edges sit together
in Dag.edges, in fan order. The Kahn sort that checks acyclicity (its order
kept), signed_multiplicities and terminating_paths all read that adjacency;
emit_dot sorts Dag.edges stably by source alone, which keeps fan order. A
Dag's public fields are system_name, n_tilde, root, vertices, constants,
edges and aux_sinks.

AuxVertex, TerminalVertex and DagEdge are NamedTuples, like the atoms, so the
vertex keys hash and compare in C; a vertex equals the plain tuple of its
fields, and AuxVertex(n, k) == Auxiliary(n, k). The records
ExtractedRecurrence and TerminatingPath are NamedTuples as well, equal to the
plain tuples of their fields, so loading this module never loads dataclasses.
RootVertex is deliberately not a tuple but an immutable value (see _value):
as a 1-tuple, RootVertex(n~) would equal TerminalVertex(n~), and both occur
in one graph (maxpart at n~ = 6 reaches P(0), terminal j = 6), so
Dag.constants and signed_multiplicities would merge them.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Union

from . import budget
from ._value import Value
from .errors import BudgetExceeded, CyclicReduction
from .rewrite import Atom, Primary, RewriteSystem, RuleKind, _fire


class RootVertex(Value):
    """The root of a reduction graph, p(n~) in the primary plane.

    Compared and hashed by n_tilde, and equal to no other vertex.
    """

    __slots__ = ("n_tilde",)

    n_tilde: int

    def __init__(self, n_tilde: int) -> None:
        object.__setattr__(self, "n_tilde", n_tilde)

    def dot_name(self) -> str:
        return f"R_{self.n_tilde}"


class AuxVertex(NamedTuple):
    n: int
    k: int

    def dot_name(self) -> str:
        return f"A_{self.n}_{self.k}"


class TerminalVertex(NamedTuple):
    j: int

    def dot_name(self) -> str:
        return f"P_{self.j}"


Vertex = Union[RootVertex, AuxVertex, TerminalVertex]


class DagEdge(NamedTuple):
    source: Vertex
    target: Vertex
    sign: int
    rule: str


class Dag:
    """Reduction graph for one root; immutable once built.

    The private adjacency is by position in vertices: the out-edges of the
    vertex at i are edges[_first[i]:_first[i + 1]], and edges[e] leads to the
    vertex at _target[e]. _order lists positions in the Kahn order from the
    root that build_dag's acyclicity check kept.
    """

    def __init__(self, system_name: str, n_tilde: int) -> None:
        self.system_name = system_name
        self.n_tilde = n_tilde
        self.root = RootVertex(n_tilde)
        self.vertices: list[Vertex] = [self.root]
        self.constants: dict[Vertex, int] = {self.root: 0}  # build_dag sets the root's
        self.edges: list[DagEdge] = []
        self.aux_sinks: set[AuxVertex] = set()  # empty-fan termination vertices
        # a lone root's, until build_dag sets the whole graph's
        self._first: list[int] = [0, 0]
        self._target: list[int] = []
        self._order: list[int] = [0]

    def terminal_vertices(self) -> list[TerminalVertex]:
        return [v for v in self.vertices if isinstance(v, TerminalVertex)]

    def constant_at(self, v: Vertex) -> int:
        return self.constants.get(v, 0)


def build_dag(system: RewriteSystem, n_tilde: int) -> Dag:
    """Reachable reduction graph under system, rooted at Primary(n_tilde).

    Raises NoRuleApplies when a reachable atom has no rule, BudgetExceeded
    when the reachable set, root and terminals included, outgrows the vertex
    budget (PLAB_BUDGET, else budget.DAG_VERTEX_BUDGET, one million), and
    propagates AmbiguousRule from grounding.
    Acyclicity is verified structurally before returning, by a topological
    sort whose order the graph keeps.
    """
    limit = budget.resolve(budget.DAG_VERTEX_BUDGET)
    dag = Dag(system.name, n_tilde)
    vertices, edges, first, target = dag.vertices, dag.edges, [], []

    # positions in dag.vertices, keyed by the atom a vertex stands for: P(u) for
    # terminal n~ - u, A(n, k) for its auxiliary vertex; the root is not keyed,
    # since P(n~) reached by a fan is terminal 0
    position: dict[Atom, int] = {}
    atoms: list[Atom] = [Primary(n_tilde)]  # the atom at each position

    # fire the root, then each auxiliary atom in the order reached; a vertex's
    # out-edges are appended together, in fan order, before the next vertex's
    for s, atom in enumerate(atoms):  # atoms grows as fans reach new ones
        first.append(len(edges))
        source = vertices[s]
        if isinstance(source, TerminalVertex):
            continue
        rule, constant, fan = _fire(system, atom)
        if constant:
            dag.constants[source] = constant
        if rule.kind == RuleKind.TERMINATION and not fan:
            dag.aux_sinks.add(source)
        name = rule.name
        for sign, reached in fan:
            t = position.get(reached)
            if t is None:
                t = position[reached] = len(atoms)
                atoms.append(reached)
                if isinstance(reached, Primary):
                    vertices.append(TerminalVertex(n_tilde - reached.n))
                else:
                    vertices.append(AuxVertex(*reached))
                if t >= limit:
                    raise BudgetExceeded(
                        f"{system.name} reduction from {n_tilde} exceeded {limit} vertices"
                    )
            edges.append(DagEdge(source, vertices[t], sign, name))
            target.append(t)
    first.append(len(edges))
    dag._first, dag._target = first, target

    # Kahn's sort by position, the acyclicity check on every build; only the
    # root starts with no in-edge, since every other vertex was reached by one
    indeg = [0] * len(vertices)
    for t in target:
        indeg[t] += 1
    order = [0]
    for v in order:  # order grows as vertices lose their last in-edge
        for t in target[first[v] : first[v + 1]]:
            indeg[t] -= 1
            if not indeg[t]:
                order.append(t)
    if len(order) != len(vertices):
        raise CyclicReduction(f"{system.name} reduction from {n_tilde} is cyclic")
    dag._order = order
    return dag


class ExtractedRecurrence(NamedTuple):
    """Direct recurrence p(n~) = constant + sum_j coeffs[j] p(n~ - j)."""

    n_tilde: int
    constant: int
    coeffs: dict[int, int]

    def reconstruct(self, p: Callable[[int], int]) -> int:
        """Evaluate the right-hand side against a partition counter p."""
        return self.constant + sum(
            c * p(self.n_tilde - j) for j, c in self.coeffs.items() if c
        )


def signed_multiplicities(dag: Dag) -> dict[Vertex, int]:
    """Signed count of root-to-vertex paths, by one topological sweep."""
    first, target, edges = dag._first, dag._target, dag.edges
    mult = [0] * len(dag.vertices)
    mult[0] = 1
    for v in dag._order:
        m = mult[v]
        if m == 0:
            continue
        for e in range(first[v], first[v + 1]):
            mult[target[e]] += edges[e].sign * m
    return dict(zip(dag.vertices, mult))


def extract_from_dag(dag: Dag) -> ExtractedRecurrence:
    mult = signed_multiplicities(dag)
    constant = sum(c * mult.get(v, 0) for v, c in dag.constants.items())
    coeffs = {j: 0 for j in range(1, dag.n_tilde + 1)}
    for v in dag.terminal_vertices():
        coeffs[v.j] = mult[v]
    return ExtractedRecurrence(dag.n_tilde, constant, coeffs)


class TerminatingPath(NamedTuple):
    """One root-to-terminal path.

    j is the terminal coefficient index, or None when the path ends at an
    auxiliary vertex whose termination rule has an empty fan (a constant-only
    sink). sign is the product of edge signs along the path.
    """

    vertices: tuple[Vertex, ...]
    sign: int
    j: int | None


def enumerate_terminating_paths(
    system: RewriteSystem, n_tilde: int
) -> list[TerminatingPath]:
    """Every root-to-terminal path, with sign products and terminal indices.

    Exponential in general; guarded by a path budget (PLAB_BUDGET, else
    budget.PATH_BUDGET, one million). Grouping signs by j reproduces the
    extracted coefficients, which the test suite checks.
    """
    return terminating_paths(build_dag(system, n_tilde))


def terminating_paths(dag: Dag) -> list[TerminatingPath]:
    """enumerate_terminating_paths over a graph already built."""
    limit = budget.resolve(budget.PATH_BUDGET)
    vertices, edges, first, target = dag.vertices, dag.edges, dag._first, dag._target
    paths: list[TerminatingPath] = []
    # (position, vertices so far, sign so far)
    stack: list[tuple[int, tuple[Vertex, ...], int]] = [(0, (dag.root,), 1)]
    while stack:
        v, trail, sign = stack.pop()
        if first[v] == first[v + 1]:
            vertex = vertices[v]
            if isinstance(vertex, TerminalVertex):
                paths.append(TerminatingPath(trail, sign, vertex.j))
            elif vertex in dag.aux_sinks:
                paths.append(TerminatingPath(trail, sign, None))
            # a bare root (primary ground instance) yields no paths
            if len(paths) > limit:
                raise BudgetExceeded(
                    f"{dag.system_name} path enumeration from {dag.n_tilde} "
                    f"exceeded {limit}"
                )
            continue
        # last edge first keeps first fan branches on top of the stack
        for e in range(first[v + 1] - 1, first[v] - 1, -1):
            t = target[e]
            stack.append((t, trail + (vertices[t],), sign * edges[e].sign))
    paths.reverse()
    return paths


def grouped_path_sums(paths: list[TerminatingPath]) -> dict[int, int]:
    """Sum of path signs per terminal index j; None-terminated paths ignored."""
    sums: dict[int, int] = {}
    for p in paths:
        if p.j is not None:
            sums[p.j] = sums.get(p.j, 0) + p.sign
    return sums


def _vertex_sort_key(v: Vertex) -> tuple:
    if isinstance(v, RootVertex):
        return (0,)
    if isinstance(v, AuxVertex):
        return (1, v.n, v.k)
    return (2, v.j)


def _vertex_label(dag: Dag, v: Vertex) -> str:
    if isinstance(v, RootVertex):
        base = f"P({v.n_tilde})"
    elif isinstance(v, AuxVertex):
        base = f"A({v.n},{v.k})"
    else:
        base = f"j={v.j}"
    c = dag.constant_at(v)
    return f"{base} c={c}" if c else base


def emit_dot(dag: Dag) -> str:
    """Deterministic DOT rendering of the reduction graph.

    Node names follow the planes: R_<n~> for the root, A_<n>_<k> for
    auxiliary vertices, P_<j> for terminal primary vertices. Edge labels
    carry the sign. Constants appear in vertex labels when nonzero.
    """
    ordered = sorted(dag.vertices, key=_vertex_sort_key)
    position = {v: i for i, v in enumerate(ordered)}
    lines = [f'digraph "{dag.system_name}_{dag.n_tilde}" {{']
    for v in ordered:
        shape = "ellipse" if isinstance(v, AuxVertex) else "box"
        lines.append(
            f'  "{v.dot_name()}" [shape={shape}, label="{_vertex_label(dag, v)}"];'
        )
    # stable on the source alone: build_dag appends each source's edges
    # together, in fan order
    for e in sorted(dag.edges, key=lambda e: position[e.source]):
        label = "+" if e.sign >= 0 else "-"
        lines.append(
            f'  "{e.source.dot_name()}" -> "{e.target.dot_name()}" '
            f'[label="{label}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
