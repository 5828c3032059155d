"""Coefficient sequences: definitions against their independent routes."""

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

import partlab.coefficients
from partlab import (
    CoeffSeq,
    InvalidArgument,
    NonIntegralDivision,
    c_from_product,
    c_from_recurrence,
    e_from_recurrence,
    euler_e,
    euler_product,
    euler_seq,
    f_equals_e_predicate,
    integrated_f,
    make_engine,
    pentagonal_index,
    pentagonal_pairs,
    sigma_table,
)

E_PREFIX = [-1, 1, 1, 0, 0, -1, 0, -1, 0, 0, 0, 0, 1, 0, 0, 1]
F_PREFIX = [-1, 0, 1, 1, 1, 0, 0, -1, -1, -1, -1, -1, 0, 0, 0, 1]


def test_known_prefixes():
    assert list(euler_seq(15).values) == E_PREFIX
    assert list(integrated_f(15).values) == F_PREFIX


def test_pentagonal_index_known():
    assert pentagonal_index(0) == 0
    assert [pentagonal_index(n) for n in (1, 2, 5, 7, 12, 15)] == [1, -1, 2, -2, 3, -3]
    assert all(pentagonal_index(n) is None for n in (3, 4, 6, 8, 9, 10, 11, 13))
    with pytest.raises(InvalidArgument):
        pentagonal_index(-1)


@given(st.integers(min_value=-60, max_value=60))
def test_pentagonal_index_roundtrip(k):
    n = k * (3 * k - 1) // 2
    assert pentagonal_index(n) == k


def test_pentagonal_pairs_order():
    pairs = []
    for m, sign in pentagonal_pairs():
        if m > 30:
            break
        pairs.append((m, sign))
    assert pairs == [(1, 1), (2, 1), (5, -1), (7, -1), (12, 1), (15, 1), (22, -1), (26, -1)]
    assert all(euler_e(m) == sign for m, sign in pairs)


def test_product_is_negated_e():
    prod = euler_product(120)
    e = euler_seq(120)
    assert all(prod[n] == -e[n] for n in range(121))
    # at the top of the crosscheck workload's coefficient band
    assert euler_product(1200).values == tuple(-v for v in euler_seq(1200).values)


def test_larger_factors_have_no_low_degrees():
    # the product routes apply factor j last among j..upto and rely on the
    # factors above j leaving degrees 1..j empty (distinct parts above j)
    for upto in range(61):
        for j in range(upto):
            assert not any(partlab.coefficients._truncated_product(upto, j + 1)[1 : j + 1])


def test_product_annihilates_counts():
    # convolving the full product against p gives the delta at 0
    prod = euler_product(60)
    p = [make_engine("euler").p(n) for n in range(61)]
    for n in range(61):
        conv = sum(prod[k] * p[n - k] for k in range(n + 1))
        assert conv == (1 if n == 0 else 0)


def test_integrated_is_prefix_sum():
    e = euler_seq(300)
    f = integrated_f(300)
    acc = 0
    for n in range(301):
        acc += e[n]
        assert f[n] == acc
        assert f[n] in (-1, 0, 1)


def test_truncated_product_equals_integrated():
    assert c_from_product(250).values == integrated_f(250).values
    assert c_from_product(1200).values == integrated_f(1200).values


def test_divisor_recurrences():
    assert c_from_recurrence(150).values == c_from_product(150).values
    assert e_from_recurrence(150).values == euler_seq(150).values
    # at the top of the crosscheck workload's coefficient band
    assert c_from_recurrence(1200).values == integrated_f(1200).values
    assert e_from_recurrence(1200).values == euler_seq(1200).values


def test_equality_predicate():
    e = euler_seq(300)
    f = integrated_f(300)
    for n in range(301):
        assert f_equals_e_predicate(n) == (f[n] == e[n])
    with pytest.raises(ValueError, match="n must be nonnegative, got -1"):
        f_equals_e_predicate(-1)


def test_sigma():
    # against divisor sums by trial division, at 400 and at every size through
    # 70, which takes the sieve over each square and each step of isqrt
    want = [0] + [sum(d for d in range(1, k + 1) if k % d == 0) for k in range(1, 401)]
    for upto in [*range(71), 400]:
        assert sigma_table(upto) == want[: upto + 1], upto


def test_coeffseq_validation():
    with pytest.raises(InvalidArgument):
        CoeffSeq("e", (0, 2))
    # the message lists the first four values out of range, and no -1
    with pytest.raises(ValueError, match=r"^e-sequence values outside -1\.\.1: \[2, 3, 4, 5\]$"):
        CoeffSeq("e", (0, -1, 2, 3, 4, 5, 6))
    with pytest.raises(InvalidArgument):
        CoeffSeq("c", (1, 0))  # must start at -1
    with pytest.raises(InvalidArgument):
        CoeffSeq("c", (-1, 1))  # index 1 must be 0
    with pytest.raises(InvalidArgument):
        CoeffSeq("q", (0,))
    seq = CoeffSeq("f", (-1, 0, 1))
    assert len(seq) == 3 and seq[2] == 1
    # a list is stored as a tuple, so the value hashes
    listed = CoeffSeq("f", [-1, 0, 1])
    assert listed.values == (-1, 0, 1) and hash(listed) == hash(seq)


def test_coeffseq_contract():
    seq = CoeffSeq("e", (-1, 1, 1, 0))
    same = CoeffSeq(kind="e", values=(-1, 1, 1, 0))
    assert seq == same and hash(seq) == hash(same)
    assert seq != CoeffSeq("f", (-1, 1, 1, 0))  # same values, another kind
    assert seq != CoeffSeq("e", (-1, 1, 1))
    assert seq != (-1, 1, 1, 0) and seq != ("e", (-1, 1, 1, 0))
    assert len({seq, same, CoeffSeq("f", seq.values)}) == 2
    assert repr(seq) == "CoeffSeq(kind='e', values=(-1, 1, 1, 0))"
    assert (seq.kind, seq.values, list(seq)) == ("e", (-1, 1, 1, 0), [-1, 1, 1, 0])
    for field, value in (("kind", "f"), ("values", ()), ("other", 1)):
        with pytest.raises(AttributeError):
            setattr(seq, field, value)
    with pytest.raises(AttributeError):
        del seq.values
    assert seq == same
    assert copy.copy(seq) == pickle.loads(pickle.dumps(seq)) == seq
    assert euler_seq(3) == seq
    with pytest.raises(ValueError, match="outside -1..1"):
        CoeffSeq("f", (0, 2))
    with pytest.raises(ValueError, match="start with -1"):
        CoeffSeq("c", (0,))
    with pytest.raises(ValueError, match="0 at index 1"):
        CoeffSeq("c", (-1, -1))
    with pytest.raises(ValueError, match="kind must be one of"):
        CoeffSeq("x", ())


@pytest.mark.parametrize(
    "route",
    [euler_seq, integrated_f, sigma_table, euler_product, c_from_product,
     c_from_recurrence, e_from_recurrence],
)
def test_negative_size_rejected(route):
    with pytest.raises(ValueError, match="upto must be nonnegative, got -1"):
        route(-1)


# The routes as plain Python loops over their defining sums, one term at a
# time, kept as the reference for the routes' own loops.


def _ref_product(upto, first):
    coeffs = [0] * (upto + 1)
    coeffs[0] = 1
    for j in range(first, upto + 1):
        for d in range(upto, j - 1, -1):
            coeffs[d] -= coeffs[d - j]
    return coeffs


def _ref_c_recurrence(upto):
    sig = sigma_table(upto)
    values = [-1]
    for n in range(1, upto + 1):
        total = sum((sig[n - i] - 1) * values[i] for i in range(0, n - 1))
        q, r = divmod(-total, n)
        assert r == 0
        values.append(q)
    return values


def _ref_e_recurrence(upto):
    sig = sigma_table(upto)
    values = [-1]
    for n in range(1, upto + 1):
        total = sum(sig[n - i] * values[i] for i in range(0, n))
        q, r = divmod(-total, n)
        assert r == 0
        values.append(q)
    return values


REF_TOP = 250


def _refs(upto):
    return {
        euler_product: _ref_product(upto, 1),
        c_from_product: [-v for v in _ref_product(upto, 2)],
        c_from_recurrence: _ref_c_recurrence(upto),
        e_from_recurrence: _ref_e_recurrence(upto),
    }


def test_kernels_match_plain_loops():
    # no reference's value at index n depends on upto (factors x^j with j > n
    # and sigma(k) with k > n never reach index n), so the run to REF_TOP holds
    # the run to every N <= REF_TOP, spot-checked below; the kernels run at
    # every N
    refs = _refs(REF_TOP)
    for n in (0, 1, 2, 3, 50, 149):
        assert _refs(n) == {route: ref[: n + 1] for route, ref in refs.items()}
    for route, ref in refs.items():
        for n in range(REF_TOP + 1):
            assert list(route(n).values) == ref[: n + 1], (route.__name__, n)


@pytest.mark.parametrize("at", [2, 7, 40])
def test_recurrences_check_every_division(monkeypatch, at):
    # sigma(at) off by one moves the i = 0 term of index at by one, so that
    # division, and no earlier one, must fail
    real = sigma_table

    def perturbed(upto):
        table = real(upto)
        if upto >= at:
            table[at] += 1
        return table

    monkeypatch.setattr(partlab.coefficients, "sigma_table", perturbed)
    for route, name in ((c_from_recurrence, "c"), (e_from_recurrence, "e")):
        with pytest.raises(NonIntegralDivision, match=f"^{name}_{at}:"):
            route(60)
