"""Budget plumbing shared by the rewrite evaluator and the DAG builders.

Budgets exist to turn accidental nontermination into a loud BudgetExceeded
instead of a hang. PLAB_BUDGET, when set, must be a positive integer; it
overrides the default budgets of rewrite chains, reachable-set growth and
path enumeration. It may raise the atom budget of a whole rewrite evaluation
but not lower it, so that a value small enough to cut long chains short
(PLAB_BUDGET=2) still lets an evaluation of short chains, such as maxpart at
P(4), finish. The engines' loops are bounded by n, so they take no budget.
This module is the only place that reads PLAB_BUDGET, and the order is
PLAB_BUDGET, then the default. The defaults below are read at call time, so
a test that needs a small budget monkeypatches one of them.
"""

from __future__ import annotations

import os

ENV_VAR = "PLAB_BUDGET"

# Atoms one rewrite evaluation may reach (see rewrite.eval_atom): ten times
# the most that the tests and benchmark workloads reach (38,374, bounded
# P(150), whose memo holds 7,650 atoms; minpart P(150) holds 17,101).
ATOM_BUDGET = 400_000
DAG_VERTEX_BUDGET = 1_000_000
PATH_BUDGET = 1_000_000


def env_budget() -> int | None:
    """The PLAB_BUDGET override, or None when unset.

    Raises ValueError, naming the variable and its value, when it is set to
    anything but a positive integer.
    """
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        raise ValueError(f"{ENV_VAR} must be a positive integer, got {raw!r}")
    return value


def resolve(default: int) -> int:
    """PLAB_BUDGET when set, else the default."""
    override = env_budget()
    return default if override is None else override
