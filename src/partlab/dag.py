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

build_dag fires atoms through the rewrite layer's _fire, which scans the
rules of the owning group and raises NoRuleApplies, in one loop over the
vertices it reaches. Every vertex is the atom it reduces: the root is
Primary(n~), at position 0, an auxiliary vertex is A(n, k), and terminal j is
P(n~ - j). build_dag keys every vertex by its atom and keeps one adjacency by
vertex position: each vertex's out-edges sit together in Dag.edges, in fan
order. A fan that reaches P(n~) is an edge back into the root, a cycle. The
Kahn sort that checks acyclicity (its order kept), signed_multiplicities and
terminating_paths all read that adjacency; emit_dot sorts Dag.edges stably by
source alone, which keeps fan order. A Dag's public fields are system_name,
n_tilde, root, vertices, constants and edges. Every dispatch on vertex kind
sits in this module.

DagEdge is a NamedTuple, like the atoms, so the vertex keys and edges hash
and compare in C. The records ExtractedRecurrence and TerminatingPath are
NamedTuples as well, equal to the plain tuples of their fields, so loading
this module never loads dataclasses. Edges and paths are built in C (_edge,
_path), like the built-in rules' atoms, as one is made per edge and per path.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple

from . import budget
from .errors import CyclicReduction, integer
from .rewrite import Atom, Auxiliary, Primary, RewriteSystem, _fire


class DagEdge(NamedTuple):
    source: Atom
    target: Atom
    sign: int
    rule: str


# _edge((s, t, sign, rule)) is DagEdge(s, t, sign, rule), built in C with no Python __new__ call
_edge = partial(tuple.__new__, DagEdge)


class Dag:
    """Reduction graph for one root; immutable once built.

    Every vertex is the atom it reduces: root is Primary(n_tilde), always at
    position 0; past it, each Primary P(u) is terminal j = n_tilde - u.

    The private adjacency is by position in vertices: the out-edges of the
    vertex at i are edges[_first[i]:_first[i + 1]], and edges[e] leads to the
    vertex at _target[e]. _order lists positions in the Kahn order from the
    root that build_dag's acyclicity check kept.
    """

    def __init__(self, system_name: str, n_tilde: int) -> None:
        self.system_name = system_name
        self.n_tilde = n_tilde
        self.root = Primary(n_tilde)
        self.vertices: list[Atom] = [self.root]
        self.constants: dict[Atom, int] = {self.root: 0}  # build_dag sets the root's
        self.edges: list[DagEdge] = []

    def terminal_vertices(self) -> list[Primary]:
        return [v for v in self.vertices[1:] if isinstance(v, Primary)]

    def constant_at(self, v: Atom) -> int:
        return self.constants.get(v, 0)


def build_dag(system: RewriteSystem, n_tilde: int) -> Dag:
    """Reachable reduction graph under system, rooted at Primary(n_tilde).

    Raises NoRuleApplies when a reachable atom has no rule, BudgetExceeded
    when the reachable set, root and terminals included, outgrows the vertex
    budget of budget.py, and propagates AmbiguousRule from grounding.
    Acyclicity is verified structurally before returning, by a topological
    sort whose order the graph keeps; CyclicReduction when it fails, a fan
    back to Primary(n_tilde) included; InvalidArgument for a non-int n_tilde.
    """
    integer("n_tilde", n_tilde)
    limit = budget.env_budget() or budget.DAG_VERTEX_BUDGET
    dag = Dag(system.name, n_tilde)
    vertices, edges, first, target = dag.vertices, dag.edges, [], []

    position: dict[Atom, int] = {dag.root: 0}  # positions in dag.vertices

    # fire the root, then each auxiliary vertex in the order reached; a vertex's
    # out-edges are appended together, in fan order, before the next vertex's
    for s, source in enumerate(vertices):  # vertices grows as fans reach new atoms
        first.append(len(edges))
        if s and isinstance(source, Primary):  # a terminal
            continue
        rule, constant, fan = _fire(system, source)
        if constant:
            dag.constants[source] = constant
        name = rule.name
        for sign, reached in fan:
            t = position.get(reached)
            if t is None:
                t = position[reached] = len(vertices)
                vertices.append(reached)
                if t >= limit:
                    raise budget.exceeded("vertex", limit, t + 1, system.name, n_tilde)
            edges.append(_edge((source, vertices[t], sign, name)))
            target.append(t)
    first.append(len(edges))
    dag._first, dag._target = first, target

    # Kahn's sort by position, the acyclicity check on every build; only the
    # root can start with no in-edge, since every other vertex was reached by
    # one, and an in-edge into the root closes a cycle, so it never re-enters
    indeg = [0] * len(vertices)
    for t in target:
        indeg[t] += 1
    order = [] if indeg[0] else [0]
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


def signed_multiplicities(dag: Dag) -> dict[Atom, int]:
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
    constant = sum(c * mult[v] for v, c in dag.constants.items())
    n_tilde = dag.n_tilde
    coeffs = {j: 0 for j in range(1, n_tilde + 1)}
    for v in dag.terminal_vertices():
        coeffs[n_tilde - v.n] = mult[v]
    return ExtractedRecurrence(dag.n_tilde, constant, coeffs)


class TerminatingPath(NamedTuple):
    """One root-to-terminal path.

    vertices are the atoms along the path, from Primary(n~). j is the terminal
    coefficient index n~ - u of a path ending at P(u), or None when the path
    ends at a non-root vertex with no out-edges that is not a terminal: for
    the built-in systems, an auxiliary vertex whose termination rule has an
    empty fan (a constant-only sink). sign is the product of edge signs along
    the path.
    """

    vertices: tuple[Atom, ...]
    sign: int
    j: int | None


# _path((vertices, sign, j)) is TerminatingPath(vertices, sign, j), built in C as _edge is
_path = partial(tuple.__new__, TerminatingPath)


def enumerate_terminating_paths(
    system: RewriteSystem, n_tilde: int
) -> list[TerminatingPath]:
    """Every root-to-terminal path, with sign products and terminal indices.

    Exponential in general; guarded by the path budget of budget.py.
    Grouping signs by j reproduces the extracted coefficients, which the test
    suite checks.
    """
    return terminating_paths(build_dag(system, n_tilde))


def terminating_paths(dag: Dag) -> list[TerminatingPath]:
    """enumerate_terminating_paths over a graph already built."""
    limit = budget.env_budget() or budget.PATH_BUDGET
    vertices, edges, first, target = dag.vertices, dag.edges, dag._first, dag._target
    paths: list[TerminatingPath] = []
    # (position, vertices so far, sign so far)
    stack: list[tuple[int, tuple[Atom, ...], int]] = [(0, (dag.root,), 1)]
    while stack:
        v, trail, sign = stack.pop()
        if first[v] == first[v + 1]:
            vertex = vertices[v]
            if v:  # a bare root (primary ground instance) yields no paths
                j = dag.n_tilde - vertex.n if isinstance(vertex, Primary) else None
                paths.append(_path((trail, sign, j)))
            if len(paths) > limit:
                raise budget.exceeded("path", limit, len(paths), dag.system_name, dag.n_tilde)
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


def dot_name(v: Atom, n_tilde: int) -> str:
    """DOT node name in the graph rooted at n_tilde: R_<n~> for the root,
    A_<n>_<k> for an auxiliary vertex, P_<j> for terminal j = n~ - u."""
    if type(n_tilde) is not int:  # a plain int, the common case, skips the call
        integer("n_tilde", n_tilde)
    if isinstance(v, Auxiliary):
        return f"A_{v.n}_{v.k}"
    return f"R_{v.n}" if v.n == n_tilde else f"P_{n_tilde - v.n}"


def _vertex_sort_key(v: Atom) -> tuple:
    """Auxiliary vertices by (n, k), then terminals P(u) by j = n~ - u."""
    return (False, *v) if isinstance(v, Auxiliary) else (True, -v.n)


def emit_dot(dag: Dag) -> str:
    """Deterministic DOT rendering of the reduction graph.

    Nodes are named by dot_name and listed root first, then in
    _vertex_sort_key's order. A terminal is labelled j=<j>, the root and an
    auxiliary vertex by their atom. Edge labels carry the sign: +, - or 0.
    Constants appear in vertex labels when nonzero.
    """
    n_tilde = dag.n_tilde
    ordered = [dag.root, *sorted(dag.vertices[1:], key=_vertex_sort_key)]
    position = {v: i for i, v in enumerate(ordered)}
    name = {v: dot_name(v, n_tilde) for v in ordered}  # once per vertex, not per edge end
    lines = [f'digraph "{dag.system_name}_{n_tilde}" {{']
    for i, v in enumerate(ordered):
        label = f"j={n_tilde - v.n}" if i and isinstance(v, Primary) else repr(v)
        c = dag.constant_at(v)
        if c:
            label += f" c={c}"
        shape = "ellipse" if isinstance(v, Auxiliary) else "box"
        lines.append(f'  "{name[v]}" [shape={shape}, label="{label}"];')
    # stable on the source alone: build_dag appends each source's edges
    # together, in fan order
    for e in sorted(dag.edges, key=lambda e: position[e.source]):
        label = "+" if e.sign > 0 else "-" if e.sign < 0 else "0"
        lines.append(f'  "{name[e.source]}" -> "{name[e.target]}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
