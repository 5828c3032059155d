"""PLAB_BUDGET: malformed values fail loudly, valid ones bound the work, and a
BudgetExceeded carries its kind, variable, limit and reached.

A test that needs a small budget without PLAB_BUDGET monkeypatches one of the
defaults in partlab.budget, which the evaluator and the DAG builders read at
call time.
"""

import pickle

import pytest

from partlab import (
    BudgetExceeded, Primary, build_dag, builtin_system, enumerate_terminating_paths, eval_atom,
)
from partlab import budget
from partlab.budget import env_budget
from partlab.dag import terminating_paths


@pytest.mark.parametrize("raw", ["abc", "0", "-3", ""])
def test_malformed_value_raises(monkeypatch, raw):
    monkeypatch.setenv("PLAB_BUDGET", raw)
    with pytest.raises(ValueError, match=f"PLAB_BUDGET.*{raw!r}"):
        env_budget()
    with pytest.raises(ValueError, match="PLAB_BUDGET"):
        eval_atom(builtin_system("minpart"), Primary(12))


def test_precedence(monkeypatch):
    # the path budget in force, read from a real raise: the default when
    # PLAB_BUDGET is unset, the variable when it is set; the graph, 61 vertices
    # and 44 paths, is built before PLAB_BUDGET=4 could stop it
    dag = build_dag(builtin_system("minpart"), 8)
    monkeypatch.setattr(budget, "PATH_BUDGET", 9)
    with pytest.raises(BudgetExceeded) as raised:
        terminating_paths(dag)
    assert (raised.value.limit, raised.value.reached) == (9, 10)
    monkeypatch.setenv("PLAB_BUDGET", "4")
    with pytest.raises(BudgetExceeded) as raised:
        terminating_paths(dag)
    assert (raised.value.limit, raised.value.reached) == (4, 5)


@pytest.mark.parametrize("kind, setting, run, message", [
    ("chain", ("PLAB_BUDGET", 2), lambda: eval_atom(builtin_system("minpart"), Primary(12)),
     "minpart: chain exceeded 2 applications at A(0,1)"),
    ("atom", ("ATOM_BUDGET", 1_794), lambda: eval_atom(builtin_system("bounded"), Primary(40)),
     "bounded: evaluating P(40) reached 1795 atoms, past the atom budget of 1794 "
     "(PLAB_BUDGET can raise it)"),
    ("vertex", ("DAG_VERTEX_BUDGET", 10), lambda: build_dag(builtin_system("minpart"), 30),
     "minpart reduction from 30 exceeded 10 vertices"),
    ("path", ("PATH_BUDGET", 43),
     lambda: enumerate_terminating_paths(builtin_system("minpart"), 8),
     "minpart path enumeration from 8 exceeded 43"),
], ids=("chain", "atom", "vertex", "path"))
def test_fields_of_each_kind(monkeypatch, kind, setting, run, message):
    # each kind raised for real under a small budget: PLAB_BUDGET for the
    # chain, a lowered default for the rest; reached is the first count past it
    name, limit = setting
    if name == "PLAB_BUDGET":
        monkeypatch.setenv(name, str(limit))
    else:
        monkeypatch.setattr(budget, name, limit)
    with pytest.raises(BudgetExceeded) as raised:
        run()
    error = raised.value
    fields = (kind, "PLAB_BUDGET", limit, limit + 1)
    assert (error.kind, error.variable, error.limit, error.reached) == fields
    assert str(error) == message
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is BudgetExceeded and str(copy) == message
    assert (copy.kind, copy.variable, copy.limit, copy.reached) == fields


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
