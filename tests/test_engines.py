"""The six counting engines: values, work counters, and failure modes."""

import tracemalloc
from functools import cache
from itertools import takewhile
from operator import mul
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import partlab.engines
from partlab import (
    EngineKind,
    InvalidArgument,
    NonIntegralDivision,
    integrated_f,
    make_engine,
    pentagonal_pairs,
    sigma_table,
)

KNOWN = {0: 1, 1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 10: 42, 30: 5604, 50: 204226, 100: 190569292,
         1000: 24061467864032622473692149727991}


# p(0..6) in order is a sweep; euler's and integral's offset lists hold no or
# one offset there, as first steps do
@pytest.mark.parametrize("kind", list(EngineKind))
def test_known_values(kind):
    engine = make_engine(kind)
    for n, want in KNOWN.items():
        assert engine.p(n) == want
        assert make_engine(kind).p(n) == want, n


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
    with pytest.raises(InvalidArgument):
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
    with pytest.raises(InvalidArgument, match=r"^'fibonacci' is not a valid EngineKind$"):
        make_engine("fibonacci")


# The six recurrences as plain Python loops, kept as the reference for the
# engines' C-level sums and trimmed tables: (p(0..n), recurrent_terms) of a
# sweep. _ref_integral also takes any integer f_0..f_n.


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


def _ref_integral(n, f=None):
    if f is None:
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


def _ref_bounded(n):
    # blt[k][j]: partitions of j with every part < k, each cell a stepped sum
    p, terms, blt = [1, 1], 0, [[], []]
    for m in range(2, n + 1):
        blt.append(p[:m])
        blt[2].append(1)
        terms += m + 1
        for step in range(2, m):
            blt[step + 1].append(sum(blt[step][m % step :: step]))
            terms += m // step + 1
        p.append(1 + blt[m][m])
    return p[: n + 1], terms


def _ref_minpart(n):
    # rows[m][k]: partitions of m with smallest part k, every cell k <= m stored
    p, terms, rows = [1], 0, [[0]]
    for m in range(1, n + 1):
        row = [0, p[m - 1]]
        for k in range(2, m + 1):
            row.append(rows[m - 1][k - 1] - (rows[m - k][k - 1] if k - 1 <= m - k else 0))
            terms += 2
        rows.append(row)
        terms += 1 + m
        p.append(sum(row))
    return p, terms


def _ref_maxpart(n):
    # diags[d][k]: aux(d + k, k), partitions of d + k with largest part k
    p, terms, diags = [1, 1], 0, []

    def aux(n, k):
        d = n - k
        return diags[d][k] if k <= d else p[d]

    for m in range(2, n + 1):
        d = m - 2
        diag = [0] * (d + 1)
        if d >= 2:
            diag[d] = p[d]
            for k in range(d - 1, 1, -1):
                diag[k] = diag[k + 1] - aux(d, k + 1)
            terms += 2 * d - 3
        diags.append(diag)
        terms += (m + 1) // 2 + m - 1
        p.append(1 + sum(aux(m, k) for k in range(2, m + 1)))
    return p[: n + 1], terms


@pytest.mark.parametrize(
    "kind, ref",
    [
        ("euler", _ref_euler),
        ("integral", _ref_integral),
        ("sigma", _ref_sigma),
        ("minpart", _ref_minpart),
        ("bounded", _ref_bounded),
        ("maxpart", _ref_maxpart),
    ],
)
def test_dense_engines_match_plain_loops(kind, ref):
    want_p, want_terms = ref(250)
    engine = make_engine(kind)
    assert [engine.p(n) for n in range(251)] == want_p
    assert engine.recurrent_terms == want_terms


# The composite engines' tables start at small n (bounded's first read row is
# 3, maxpart's first filled diagonal 2), and the engines workload asks bounded
# for 100..400 and maxpart for 80..300.
SMALL_AND_BAND_EDGES = [*range(13), 80, 100, 300, 400]


@pytest.mark.parametrize("kind", ["minpart", "bounded", "maxpart"])
def test_composite_engines_at_small_and_band_edges(kind):
    euler = make_engine("euler")
    sweep = make_engine(kind)
    top = SMALL_AND_BAND_EDGES[-1]
    assert [sweep.p(n) for n in range(top + 1)] == [euler.p(n) for n in range(top + 1)]
    for n in SMALL_AND_BAND_EDGES:
        assert make_engine(kind).p(n) == euler.p(n), n


# The engines workload asks minpart for 200..700. Its rows keep only their
# heads, and a step subtracts only below (m+2)/3, so odd and even tops and the
# bands' edges all come up in a sweep to 700.
def test_minpart_at_its_workload_band():
    euler = make_engine("euler")
    sweep = make_engine("minpart")
    assert [sweep.p(n) for n in range(701)] == [euler.p(n) for n in range(701)]
    for n in (200, 699, 700):
        assert make_engine("minpart").p(n) == euler.p(n), n


# minpart drops row r and maxpart diagonal i once no later step reads them:
# step m reads no row below m - (m+2)//3, and diagonal i is last read at the
# fill of diagonal 2i. A cold minpart p(700) keeps rows 467..700, and a cold
# maxpart p(300) diagonals 150..298 and the empty 0.
@pytest.mark.parametrize(
    "kind, table, n, live", [("minpart", "_rows", 700, 234), ("maxpart", "_diag", 300, 150)]
)
def test_composite_engines_drop_what_no_step_reads(kind, table, n, live):
    engine = make_engine(kind)
    engine.p(n)
    assert sum(row is not None for row in getattr(engine, table)) == live


# minpart's rows store only their heads, the cells up to half the row's index:
# a cold p(700) peaks at about 1.6 MB, where rows with their zero tails took
# 2.9 MB.
def test_minpart_keeps_only_row_heads():
    tracemalloc.start()
    try:
        make_engine("minpart").p(700)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


# The sigma engine sums its lags from SigmaEngine.SHORT = 32 on in products of
# aligned blocks of p; a block of size L closes at each step m that L divides.
# p(2^11 + 1) lies past the close of p[0:1024] and of p[1024:2048]; at 3072
# the blocks of sizes 32..1024 close, at 4096 those of sizes 32..4096.
BLOCK_BOUNDARIES = sorted({m + d for m in (*(2**i for i in range(13)), 3072) for d in (-1, 0, 1)})


def test_sigma_engine_at_block_boundaries():
    euler = make_engine("euler")
    sweep = make_engine("sigma")
    top = BLOCK_BOUNDARIES[-1]
    assert [sweep.p(n) for n in range(top + 1)] == [euler.p(n) for n in range(top + 1)]
    for n in BLOCK_BOUNDARIES:
        assert make_engine("sigma").p(n) == euler.p(n), n


# The blocks that close at step m are summed in one packed sum, with slots of
# bits(max p) + bits(max sigma) + bits(sum of sizes) bits. At m = 1024 the
# blocks of sizes 32..1024 close; every value at the top of its bit width fills
# each slot as far as it can be filled.
def test_block_sums_at_worst_case_values():
    sizes = [32 << i for i in range(6)]
    top = (1 << make_engine("euler").p(1023).bit_length()) - 1
    sigma_top = (1 << max(sigma_table(2047)).bit_length()) - 1
    a = [top] * sizes[-1]
    blocks = [[sigma_top] * size for size in sizes]
    want = [0] * (2 * len(a) - 1)
    for b in blocks:
        tail, n = a[len(a) - len(b) :], len(b)
        # coefficient t sums tail[i] b[t - i] over i = lo..hi
        for t in range(2 * n - 1):
            lo, hi = max(0, t - n + 1), min(t, n - 1)
            want[t] += sum(map(mul, tail[lo : hi + 1], reversed(b[t - hi : t - lo + 1])))
    assert partlab.engines._block_sums(a, blocks) == want


@pytest.mark.parametrize("at", [2, 7, 40, 100, 300])
def test_sigma_engine_checks_every_division(monkeypatch, at):
    # sigma(at) off by one moves the p(0) term of p(at) by one; from at = 32 on,
    # that term is summed inside a block product
    real = sigma_table

    def perturbed(upto):
        table = real(upto)
        if upto >= at:
            table[at] += 1
        return table

    monkeypatch.setattr(partlab.engines, "sigma_table", perturbed)
    engine = make_engine("sigma")
    with pytest.raises(NonIntegralDivision, match=rf"^p\({at}\):"):
        engine.p(max(60, at))


# The integral engine sums by parts over f's changes, each listed |change|
# times, so it is exact for any integer f, not only for f's values -1, 0, 1.
@pytest.mark.parametrize("at, value", [(2, 2), (7, 2), (40, 2), (7, -3), (90, 5), (3, 0)])
def test_integral_engine_sums_any_integer_f(monkeypatch, at, value):
    # a CoeffSeq refuses an f value outside -1..1, so the perturbed table bypasses it
    real = integrated_f

    def perturbed(upto):
        values = list(real(upto).values)
        if upto >= at:
            values[at] = value
        return SimpleNamespace(values=tuple(values))

    monkeypatch.setattr(partlab.engines, "integrated_f", perturbed)
    want_p, want_terms = _ref_integral(200, perturbed(200).values)
    sweep = make_engine("integral")
    assert [sweep.p(n) for n in range(201)] == want_p
    assert sweep.recurrent_terms == want_terms
    cold = make_engine("integral")
    assert cold.p(200) == want_p[200]
    assert cold.recurrent_terms == want_terms


# The integral engine lists an offset at each generalized pentagonal g, where
# f changes, and rebuilds its f table past each power of two.
PENTAGONAL = [g for g, _ in takewhile(lambda pair: pair[0] <= 2100, pentagonal_pairs())]
GROWTH_BOUNDARIES = sorted({g + d for g in PENTAGONAL for d in (-1, 0, 1)} | set(BLOCK_BOUNDARIES))


def test_integral_engine_at_growth_boundaries():
    euler = make_engine("euler")
    sweep = make_engine("integral")
    top = GROWTH_BOUNDARIES[-1]
    assert [sweep.p(n) for n in range(top + 1)] == [euler.p(n) for n in range(top + 1)]
    for n in GROWTH_BOUNDARIES:
        assert make_engine("integral").p(n) == euler.p(n), n


@cache
def _sweep(kind):
    engine = make_engine(kind)
    return [engine.p(n) for n in range(201)]


# Tables and side tables (euler's offset lists, integral's offset lists and
# prefix sums, sigma's divisor sums) grow at boundaries that depend on the call
# order; any order must give a sweep's values and a cold call's counter.
@pytest.mark.parametrize("kind", list(EngineKind))
@settings(max_examples=20)
@given(ns=st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=6))
def test_any_call_order_matches_sweep(kind, ns):
    engine = make_engine(kind)
    assert [engine.p(n) for n in ns] == [_sweep(kind)[n] for n in ns]
    cold = make_engine(kind)
    cold.p(max(ns))
    assert engine.recurrent_terms == cold.recurrent_terms
