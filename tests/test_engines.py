"""The six counting engines: values, work counters, and failure modes."""

from functools import cache
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import partlab.engines
from partlab import (
    EngineKind,
    NonIntegralDivision,
    integrated_f,
    make_engine,
    pentagonal_pairs,
    sigma_table,
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


def test_engines_ignore_budget(monkeypatch):
    # engine loops are bounded by n; PLAB_BUDGET is never read, even malformed
    for raw in ("1", "abc"):
        monkeypatch.setenv("PLAB_BUDGET", raw)
        for kind in EngineKind:
            assert make_engine(kind).p(30) == KNOWN[30]


def test_make_engine_accepts_strings():
    for kind in EngineKind:
        assert type(make_engine(str(kind))) is partlab.engines._ENGINE_CLASSES[kind]
    with pytest.raises(ValueError):
        make_engine("fibonacci")


# The euler, integral and sigma recurrences as plain Python loops, kept as the
# reference for the engines' C-level sums: (p(0..n), recurrent_terms) of a
# sweep.


def _ref_euler(n):
    p, terms = [1], 0
    for m in range(1, n + 1):
        total = 0
        for g, sign in pentagonal_pairs():
            if g > m:
                break
            total += sign * p[m - g]
            terms += 1
        p.append(total)
    return p, terms


def _ref_integral(n):
    f = integrated_f(n).values
    p, terms = [1], 0
    for m in range(1, n + 1):
        total = 1
        for k in range(1, m + 1):
            if f[k] != 0:
                total += f[k] * p[m - k]
                terms += 1
        p.append(total)
    return p, terms


def _ref_sigma(n):
    sig = sigma_table(n)
    p, terms = [1], 0
    for m in range(1, n + 1):
        total = 0
        for k in range(1, m + 1):
            total += sig[k] * p[m - k]
        terms += m
        q, r = divmod(total, m)
        assert r == 0
        p.append(q)
    return p, terms


@pytest.mark.parametrize(
    "kind, ref", [("euler", _ref_euler), ("integral", _ref_integral), ("sigma", _ref_sigma)]
)
def test_dense_engines_match_plain_loops(kind, ref):
    want_p, want_terms = ref(250)
    engine = make_engine(kind)
    assert [engine.p(n) for n in range(251)] == want_p
    assert engine.recurrent_terms == want_terms


@pytest.mark.parametrize("at", [2, 7, 40])
def test_sigma_engine_checks_every_division(monkeypatch, at):
    # sigma(at) off by one moves the p(0) term of p(at) by one
    real = sigma_table

    def perturbed(upto):
        table = real(upto)
        if upto >= at:
            table[at] += 1
        return table

    monkeypatch.setattr(partlab.engines, "sigma_table", perturbed)
    engine = make_engine("sigma")
    with pytest.raises(NonIntegralDivision, match=rf"^p\({at}\):"):
        engine.p(60)


@pytest.mark.parametrize("at", [2, 7, 40])
def test_integral_engine_checks_f_range(monkeypatch, at):
    # a CoeffSeq refuses a 2, so the perturbed table bypasses it
    real = integrated_f

    def perturbed(upto):
        values = list(real(upto).values)
        if upto >= at:
            values[at] = 2
        return SimpleNamespace(values=tuple(values))

    monkeypatch.setattr(partlab.engines, "integrated_f", perturbed)
    engine = make_engine("integral")
    with pytest.raises(ValueError, match=rf"f_{at} = 2 outside -1\.\.1"):
        engine.p(60)


@cache
def _sweep(kind):
    engine = make_engine(kind)
    return [engine.p(n) for n in range(201)]


# Tables and side tables (euler's offset lists, integral's masks, sigma's
# divisor sums) grow at boundaries that depend on the call order; any order
# must give a sweep's values and a cold call's counter.
@pytest.mark.parametrize("kind", list(EngineKind))
@settings(max_examples=20)
@given(ns=st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=6))
def test_any_call_order_matches_sweep(kind, ns):
    engine = make_engine(kind)
    assert [engine.p(n) for n in ns] == [_sweep(kind)[n] for n in ns]
    cold = make_engine(kind)
    cold.p(max(ns))
    assert engine.recurrent_terms == cold.recurrent_terms
