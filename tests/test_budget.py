"""PLAB_BUDGET: malformed values fail loudly, valid ones bound the work."""

import pytest

from partlab import BudgetExceeded, Primary, build_dag, builtin_system, eval_atom
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
    assert resolve(None, 9) == 9
    monkeypatch.setenv("PLAB_BUDGET", "4")
    assert resolve(None, 9) == 4
    assert resolve(7, 9) == 7


def test_valid_value_bounds_work(monkeypatch):
    monkeypatch.setenv("PLAB_BUDGET", "2")
    with pytest.raises(BudgetExceeded):
        eval_atom(builtin_system("minpart"), Primary(12))
    with pytest.raises(BudgetExceeded):
        eval_atom(builtin_system("maxpart"), Primary(5))
    with pytest.raises(BudgetExceeded):
        build_dag(builtin_system("maxpart"), 10)
    assert eval_atom(builtin_system("maxpart"), Primary(4)) == 5  # chains of at most 2 steps
