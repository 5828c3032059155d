"""The budgets that turn a runaway reduction into a loud BudgetExceeded: their
kinds, defaults and messages, and how PLAB_BUDGET combines with each default.

The kinds are the keys of MESSAGES: chain, the rule applications of one chain
in rewrite.eval_atom (chain_default of the atom that started it); atom, the
atoms one eval_atom call reaches (ATOM_BUDGET); vertex, the vertices of a
dag.build_dag graph (DAG_VERTEX_BUDGET); path, the paths dag.terminating_paths
lists (PATH_BUDGET). PLAB_BUDGET, a positive integer read once per call,
replaces the chain, vertex and path defaults and may raise the atom budget but
not lower it (atom_limit): PLAB_BUDGET=2 cuts long chains short and still lets
maxpart at P(4) finish. The engines' loops are bounded by n and take no budget.
Only this module reads PLAB_BUDGET or builds a budget message; its defaults
are read at call time, so a test may monkeypatch one.
"""

from __future__ import annotations

import os

from .errors import BudgetExceeded, InvalidArgument

ENV_VAR = "PLAB_BUDGET"

# ten times the most atoms an evaluation in the tests and workloads reaches:
# 38,374, bounded P(150), whose memo holds 7,650 (minpart P(150)'s 17,101)
ATOM_BUDGET = 400_000
DAG_VERTEX_BUDGET = 1_000_000
PATH_BUDGET = 1_000_000

MESSAGES = {
    "chain": "{system}: chain exceeded {limit} applications at {where!r}",
    "atom": "{system}: evaluating {where!r} reached {reached} atoms, past the atom "
            "budget of {limit} ({variable} can raise it)",
    "vertex": "{system} reduction from {where} exceeded {limit} vertices",
    "path": "{system} path enumeration from {where} exceeded {limit}",
}


def env_budget() -> int | None:
    """The PLAB_BUDGET override, or None when unset. Raises InvalidArgument (a
    ValueError) naming the variable and its value unless it is a positive integer."""
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        raise InvalidArgument(f"{ENV_VAR} must be a positive integer, got {raw!r}")
    return value


def chain_default(atom) -> int:
    """The chain budget of a chain started at atom: 10 * (|n| + |k| + 1)."""
    return 10 * (sum(map(abs, atom)) + 1)


def atom_limit(override: int | None) -> int:
    """The atom budget under the PLAB_BUDGET override: raised, never lowered."""
    return ATOM_BUDGET if override is None else max(override, ATOM_BUDGET)


def exceeded(kind: str, limit: int, reached: int, system: str, where) -> BudgetExceeded:
    """The BudgetExceeded of kind with its fields set, its message built from them,
    the system's name and where the count passed the limit: an atom or n~."""
    error = BudgetExceeded(MESSAGES[kind].format(system=system, where=where, limit=limit,
                                                 reached=reached, variable=ENV_VAR))
    error.kind, error.variable, error.limit, error.reached = kind, ENV_VAR, limit, reached
    return error
