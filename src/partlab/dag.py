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
system's firing tables, in one loop over the atoms it reaches. It keys every
vertex but the root by the atom it stands for, counts in-degrees while it adds
edges, and keeps the topological order its acyclicity check computes;
signed_multiplicities sweeps that order.

AuxVertex, TerminalVertex and DagEdge are NamedTuples, like the atoms, so the
vertex keys hash and compare in C; a vertex equals the plain tuple of its
fields, and AuxVertex(n, k) == Auxiliary(n, k). The records
ExtractedRecurrence and TerminatingPath are NamedTuples as well, equal to the
plain tuples of their fields, so loading this module never loads dataclasses.
RootVertex is deliberately not a tuple but an immutable value (see _value):
as a 1-tuple, RootVertex(n~) would equal TerminalVertex(n~), and both occur
in one graph (maxpart at n~ = 6 reaches P(0), terminal j = 6), so Dag.out,
Dag.constants and signed_multiplicities would merge them.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, NamedTuple, Union

from . import budget
from ._value import Value
from .errors import BudgetExceeded, CyclicReduction, NoRuleApplies
from .rewrite import Atom, Auxiliary, Primary, RewriteSystem, RuleKind, _fire


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
    fan_index: int


class Dag:
    """Reduction graph for one root; immutable once built."""

    def __init__(self, system_name: str, n_tilde: int) -> None:
        self.system_name = system_name
        self.n_tilde = n_tilde
        self.root = RootVertex(n_tilde)
        self.vertices: list[Vertex] = [self.root]
        self.constants: dict[Vertex, int] = {}
        self.edges: list[DagEdge] = []
        self.out: dict[Vertex, list[DagEdge]] = {self.root: []}
        self.aux_sinks: set[AuxVertex] = set()  # empty-fan termination vertices
        self._order: list[Vertex] = [self.root]  # build_dag sets the whole graph's

    def terminal_vertices(self) -> list[TerminalVertex]:
        return [v for v in self.vertices if isinstance(v, TerminalVertex)]

    def constant_at(self, v: Vertex) -> int:
        return self.constants.get(v, 0)

    def topological_order(self) -> list[Vertex]:
        """The Kahn order from the root that build_dag's acyclicity check kept."""
        return list(self._order)

    def _kahn(self, succ: list[list[int]], indeg: list[int]) -> list[Vertex]:
        """Kahn's sort of the graph by vertex position: successor lists in
        edge order, and in-degrees, which the sort consumes."""
        queue = deque(i for i, d in enumerate(indeg) if not d)
        order = []
        while queue:
            v = queue.popleft()
            order.append(v)
            for t in succ[v]:
                indeg[t] -= 1
                if not indeg[t]:
                    queue.append(t)
        if len(order) != len(self.vertices):
            raise CyclicReduction(
                f"{self.system_name} reduction from {self.n_tilde} is cyclic"
            )
        vertices = self.vertices
        return [vertices[i] for i in order]


def build_dag(
    system: RewriteSystem, n_tilde: int, vertex_budget: int | None = None
) -> Dag:
    """Reachable reduction graph under system, rooted at Primary(n_tilde).

    Raises NoRuleApplies when a reachable atom has no rule, BudgetExceeded
    when the reachable set outgrows the budget (default one million vertices,
    PLAB_BUDGET overrides), and propagates AmbiguousRule from grounding.
    Acyclicity is verified structurally before returning, by a topological
    sort whose order the graph keeps.
    """
    limit = budget.resolve(vertex_budget, budget.DAG_VERTEX_BUDGET)
    dag = Dag(system.name, n_tilde)

    fired = _fire(system, Primary(n_tilde))
    if fired is None:
        raise NoRuleApplies(f"{system.name}: no rule applies at P({n_tilde})")
    dag.constants[dag.root] = fired[1]

    # positions in dag.vertices, keyed by the atom a vertex stands for: P(u) for
    # terminal n~ - u, A(n, k) for its auxiliary vertex; the root is not keyed,
    # since P(n~) reached by a fan is terminal 0
    position: dict[Atom, int] = {}
    vertices = dag.vertices
    # the graph by position, counted as edges are added, for the final sort
    succ: list[list[int]] = [[]]
    indeg: list[int] = [0]
    work: deque[tuple[int, Auxiliary]] = deque()

    # the root's fan, then the fan of each auxiliary atom in the order reached
    s, source, (rule, _, fan) = 0, dag.root, fired
    while True:
        if fan:
            out = []
            targets = succ[s]
            name = rule.name
            for i, (sign, target) in enumerate(fan):
                t = position.get(target)
                if t is None:
                    t = position[target] = len(vertices)
                    if isinstance(target, Primary):
                        vertices.append(TerminalVertex(n_tilde - target.n))
                    else:
                        vertices.append(AuxVertex(*target))
                        work.append((t, target))
                    if t >= limit:
                        raise BudgetExceeded(
                            f"{system.name} reduction from {n_tilde} exceeded {limit} vertices"
                        )
                    succ.append([])
                    indeg.append(0)
                out.append(DagEdge(source, vertices[t], sign, name, i))
                targets.append(t)
                indeg[t] += 1
            dag.out[source] = out
            dag.edges += out
        if not work:
            break
        s, atom = work.popleft()
        fired = _fire(system, atom)
        if fired is None:
            raise NoRuleApplies(f"{system.name}: no rule applies at {atom!r}")
        rule, constant, fan = fired
        source = vertices[s]
        if constant:
            dag.constants[source] = constant
        if rule.kind == RuleKind.TERMINATION and not fan:
            dag.aux_sinks.add(source)

    dag._order = dag._kahn(succ, indeg)  # acyclicity check on every build, kept
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
    mult: dict[Vertex, int] = {v: 0 for v in dag.vertices}
    mult[dag.root] = 1
    for v in dag.topological_order():
        m = mult[v]
        if m == 0:
            continue
        for e in dag.out.get(v, ()):
            mult[e.target] += e.sign * m
    return mult


def extract_from_dag(dag: Dag) -> ExtractedRecurrence:
    mult = signed_multiplicities(dag)
    constant = sum(c * mult.get(v, 0) for v, c in dag.constants.items())
    coeffs = {j: 0 for j in range(1, dag.n_tilde + 1)}
    for v in dag.terminal_vertices():
        coeffs[v.j] = mult[v]
    return ExtractedRecurrence(dag.n_tilde, constant, coeffs)


def extract_coefficients(
    system: RewriteSystem, n_tilde: int, vertex_budget: int | None = None
) -> ExtractedRecurrence:
    """Build the reduction graph and read off the direct recurrence."""
    return extract_from_dag(build_dag(system, n_tilde, vertex_budget))


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
    system: RewriteSystem, n_tilde: int, path_budget: int | None = None
) -> list[TerminatingPath]:
    """Every root-to-terminal path, with sign products and terminal indices.

    Exponential in general; guarded by a path budget (default one million,
    PLAB_BUDGET overrides). Grouping signs by j reproduces the extracted
    coefficients, which the test suite checks.
    """
    return terminating_paths(build_dag(system, n_tilde), path_budget)


def terminating_paths(dag: Dag, path_budget: int | None = None) -> list[TerminatingPath]:
    """enumerate_terminating_paths over a graph already built."""
    limit = budget.resolve(path_budget, budget.PATH_BUDGET)
    paths: list[TerminatingPath] = []
    stack: list[tuple[Vertex, tuple[Vertex, ...], int]] = [
        (dag.root, (dag.root,), 1)
    ]
    while stack:
        vertex, trail, sign = stack.pop()
        edges = dag.out.get(vertex, ())
        if not edges:
            if isinstance(vertex, TerminalVertex):
                paths.append(TerminatingPath(trail, sign, vertex.j))
            elif isinstance(vertex, AuxVertex) and vertex in dag.aux_sinks:
                paths.append(TerminatingPath(trail, sign, None))
            # a bare root (primary ground instance) yields no paths
            if len(paths) > limit:
                raise BudgetExceeded(
                    f"{dag.system_name} path enumeration from {dag.n_tilde} "
                    f"exceeded {limit}"
                )
            continue
        # reversed keeps first fan branches on top of the stack
        for e in reversed(edges):
            stack.append((e.target, trail + (e.target,), sign * e.sign))
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
    for e in sorted(dag.edges, key=lambda e: (position[e.source], e.fan_index)):
        label = "+" if e.sign >= 0 else "-"
        lines.append(
            f'  "{e.source.dot_name()}" -> "{e.target.dot_name()}" '
            f'[label="{label}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
