"""The six counting engines: values, work counters, and failure modes."""

import pytest

from partlab import (
    BudgetExceeded,
    EngineKind,
    MaxPartEngine,
    make_engine,
    p_all,
)

KNOWN = {0: 1, 1: 1, 4: 5, 10: 42, 30: 5604, 50: 204226, 100: 190569292}


@pytest.mark.parametrize("kind", list(EngineKind))
def test_known_values(kind):
    engine = make_engine(kind)
    for n, want in KNOWN.items():
        assert engine.p(n) == want


@pytest.mark.parametrize("kind", list(EngineKind))
def test_against_oracle(kind, oracle_counts):
    engine = make_engine(kind)
    for n, want in enumerate(oracle_counts):
        assert engine.p(n) == want


def test_p_all_agrees():
    for n in (0, 7, 19, 64):
        values = set(p_all(n).values())
        assert len(values) == 1


def test_monotone_growth():
    engine = make_engine("euler")
    for n in range(2, 120):
        assert engine.p(n) > engine.p(n - 1)


@pytest.mark.parametrize("kind", list(EngineKind))
def test_negative_argument(kind):
    with pytest.raises(ValueError):
        make_engine(kind).p(-1)


def test_counter_starts_at_zero_and_grows():
    engine = make_engine("euler")
    assert engine.recurrent_terms == 0
    engine.p(1)
    assert engine.recurrent_terms == 1  # single table read: p(0)
    engine.p(3)
    # n=2 reads offsets 1,2; n=3 reads offsets 1,2 -> 5 reads in total
    assert engine.recurrent_terms == 5


def test_counter_not_shared_between_instances():
    a = make_engine("integral")
    b = make_engine("integral")
    a.p(30)
    assert a.recurrent_terms > 0
    assert b.recurrent_terms == 0


def test_euler_beats_integral_on_work():
    euler = make_engine("euler")
    integral = make_engine("integral")
    euler.p(300)
    integral.p(300)
    assert euler.recurrent_terms < integral.recurrent_terms


# recurrent_terms is the paper's cost measure, so restructuring an engine must
# not move it. A sweep p(0..300) and a cold p(300) build the same tables, so
# they read the same terms.
PINNED_TERMS = {
    "euler": (5383, 1328),
    "integral": (30030, 4820),
    "sigma": (45150, 7260),
    "minpart": (135150, 21660),
    "bounded": (287504, 39627),
    "maxpart": (155708, 24488),
}


@pytest.mark.parametrize("kind", list(EngineKind))
def test_recurrent_terms_pinned(kind):
    at_300, at_120 = PINNED_TERMS[str(kind)]
    sweep = make_engine(kind)
    for n in range(301):
        sweep.p(n)
    assert sweep.recurrent_terms == at_300
    cold = make_engine(kind)
    cold.p(300)
    assert cold.recurrent_terms == at_300
    cold = make_engine(kind)
    cold.p(120)
    assert cold.recurrent_terms == at_120


def test_maxpart_chain_bound_is_tight():
    # chains from (n, k) terminate within n - 2k steps; zero slack must work
    engine = MaxPartEngine(chain_slack=0)
    assert engine.p(60) == make_engine("euler").p(60)


def test_maxpart_budget_override(monkeypatch):
    monkeypatch.setenv("PLAB_BUDGET", "1")
    engine = make_engine("maxpart")
    with pytest.raises(BudgetExceeded):
        engine.p(30)


def test_make_engine_accepts_strings():
    for kind in EngineKind:
        assert make_engine(str(kind)).kind == kind
    with pytest.raises(ValueError):
        make_engine("fibonacci")
