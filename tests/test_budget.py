"""PLAB_BUDGET: malformed values fail loudly, valid ones bound the work.

A test that needs a small budget without PLAB_BUDGET monkeypatches one of the
defaults in partlab.budget, which the evaluator and the DAG builders read at
call time.
"""

import pytest

from partlab import BudgetExceeded, Primary, build_dag, builtin_system, eval_atom
from partlab import budget
from partlab.budget import env_budget, resolve


@pytest.mark.parametrize("raw", ["abc", "0", "-3", ""])
def test_malformed_value_raises(monkeypatch, raw):
    monkeypatch.setenv("PLAB_BUDGET", raw)
    with pytest.raises(ValueError, match=f"PLAB_BUDGET.*{raw!r}"):
        env_budget()
    with pytest.raises(ValueError, match="PLAB_BUDGET"):
        eval_atom(builtin_system("minpart"), Primary(12))


def test_precedence(monkeypatch):
    monkeypatch.delenv("PLAB_BUDGET", raising=False)
    assert resolve(9) == 9
    monkeypatch.setenv("PLAB_BUDGET", "4")
    assert resolve(9) == 4


def test_valid_value_bounds_work(monkeypatch):
    monkeypatch.setenv("PLAB_BUDGET", "2")
    with pytest.raises(BudgetExceeded):
        eval_atom(builtin_system("minpart"), Primary(12))
    with pytest.raises(BudgetExceeded):
        eval_atom(builtin_system("maxpart"), Primary(5))
    with pytest.raises(BudgetExceeded):
        build_dag(builtin_system("maxpart"), 10)
    assert eval_atom(builtin_system("maxpart"), Primary(4)) == 5  # chains of at most 2 steps


def test_atom_budget_bounds_a_whole_evaluation(monkeypatch):
    monkeypatch.delenv("PLAB_BUDGET", raising=False)
    bounded = builtin_system("bounded")
    # bounded P(40): the root and 1,794 fan entries over its 573 memo atoms
    monkeypatch.setattr(budget, "ATOM_BUDGET", 1_795)
    assert eval_atom(bounded, Primary(40)) == 37_338
    monkeypatch.setattr(budget, "ATOM_BUDGET", 1_794)
    with pytest.raises(BudgetExceeded, match=r"P\(40\) reached \d+ atoms.*budget of 1794"):
        eval_atom(bounded, Primary(40))
    # PLAB_BUDGET is named in the message; it raises the default but does not
    # lower it
    monkeypatch.setattr(budget, "ATOM_BUDGET", 100)
    with pytest.raises(BudgetExceeded, match="PLAB_BUDGET can raise it"):
        eval_atom(bounded, Primary(40))
    monkeypatch.setenv("PLAB_BUDGET", "1795")
    assert eval_atom(bounded, Primary(40)) == 37_338
    monkeypatch.setenv("PLAB_BUDGET", "1794")
    with pytest.raises(BudgetExceeded, match="budget of 1794"):
        eval_atom(bounded, Primary(40))
    monkeypatch.setattr(budget, "ATOM_BUDGET", 1_795)
    monkeypatch.setenv("PLAB_BUDGET", "100")
    assert eval_atom(bounded, Primary(40)) == 37_338
