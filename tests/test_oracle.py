"""The enumeration oracle itself, against hand-countable cases and a
minimal recursive reference that shares no code with partlab."""

from collections import Counter
from operator import itemgetter

import pytest
from hypothesis import given, strategies as st

from partlab import (
    InvalidArgument,
    ORACLE_CAP,
    count_constrained,
    enumerate_partitions,
    enumerate_strict,
    max_part_histogram,
    p_oracle,
    s_oracle,
)
from partlab.oracle import _zs1

KNOWN_P = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
KNOWN_S = [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10]
CONSTRAINTS = ("none", "parts_below", "parts_above", "max_part", "min_part")


def reference(n, strict=False, cap=None):
    """Every partition of n (into distinct parts if strict) with parts <= cap,
    descending lexicographic, by plain recursion."""
    if cap is None:
        cap = n
    if n == 0:
        return [()]
    return [
        (first,) + rest
        for first in range(min(n, cap), 0, -1)
        for rest in reference(n - first, strict, first - 1 if strict else first)
    ]


def reference_holds(parts, constraint, k):
    if constraint == "none":
        return True
    if constraint == "parts_below":
        return all(p < k for p in parts)
    if constraint == "parts_above":
        return all(p > k for p in parts)
    if constraint == "max_part":
        return bool(parts) and max(parts) == k
    assert constraint == "min_part"
    return bool(parts) and min(parts) == k


def test_small_counts():
    assert [p_oracle(n) for n in range(11)] == KNOWN_P
    assert [s_oracle(n) for n in range(11)] == KNOWN_S


def test_enumeration_of_four():
    assert list(enumerate_partitions(4)) == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]


def test_enumeration_shape_and_order():
    seen = list(enumerate_partitions(6))
    assert len(seen) == 11
    assert all(sum(parts) == 6 for parts in seen)
    assert all(parts == tuple(sorted(parts, reverse=True)) for parts in seen)
    assert seen == sorted(seen, reverse=True)  # descending lexicographic


def test_strict_enumeration():
    assert list(enumerate_strict(7)) == [(7,), (6, 1), (5, 2), (4, 3), (4, 2, 1)]
    assert all(len(set(parts)) == len(parts) for parts in enumerate_strict(10))


def test_strict_listing_yields_distinct_tuples():
    # the walk rewrites one list in place; listing must copy each partition
    listed = list(enumerate_strict(20))
    assert all(type(parts) is tuple for parts in listed)
    assert len(set(listed)) == len(listed) == s_oracle(20) == 64


@pytest.mark.parametrize(
    "n, strict", [(n, False) for n in range(26)] + [(n, True) for n in range(41)]
)
def test_listing_matches_reference(n, strict):
    got = list((enumerate_strict if strict else enumerate_partitions)(n))
    assert got == reference(n, strict)  # same partitions, same order
    assert all(type(parts) is tuple for parts in got)
    assert len({id(parts) for parts in got}) == len(got)  # no shared buffer


@given(st.data())
def test_counts_match_reference_filter(data):
    n = data.draw(st.integers(min_value=0, max_value=22), label="n")
    family = data.draw(st.sampled_from("PS"), label="family")
    constraint = data.draw(st.sampled_from(CONSTRAINTS), label="constraint")
    k = data.draw(st.integers(min_value=0, max_value=n + 1), label="k")
    listing = reference(n, strict=family == "S")
    want = sum(1 for parts in listing if reference_holds(parts, constraint, k))
    assert count_constrained(n, family, constraint, k) == want
    listing = reference(n, strict=False)
    hist = max_part_histogram(n)
    assert sum(hist.values()) == sum(1 for parts in listing if parts)
    want_hist = {}
    for parts in listing:
        if parts:
            want_hist[parts[0]] = want_hist.get(parts[0], 0) + 1
    assert list(hist.items()) == list(want_hist.items())  # key order too


def test_empty_partition():
    assert list(enumerate_partitions(0)) == [()]
    assert list(enumerate_strict(0)) == [()]
    assert max_part_histogram(0) == {}
    for family in "PS":
        for constraint in CONSTRAINTS:
            vacuous = constraint in ("none", "parts_below", "parts_above")
            assert count_constrained(0, family, constraint, 1) == vacuous


def test_constraint_counts():
    # all parts < 4 within n = 8, by independent comprehension
    want = sum(1 for parts in enumerate_partitions(8) if all(p < 4 for p in parts))
    assert count_constrained(8, "P", "parts_below", 4) == want
    want = sum(1 for parts in enumerate_partitions(8) if parts and min(parts) > 2)
    assert count_constrained(8, "P", "parts_above", 2) == want
    # smallest part exactly 1 <-> drop one 1
    assert count_constrained(9, "P", "min_part", 1) == p_oracle(8)


def test_max_part_histogram_totals():
    hist = max_part_histogram(8)
    assert sum(hist.values()) == p_oracle(8)
    for k, count in hist.items():
        assert count_constrained(8, "P", "max_part", k) == count


def test_constraint_validation():
    with pytest.raises(ValueError, match="family must be 'P' or 'S'"):
        count_constrained(5, "Q")
    with pytest.raises(InvalidArgument):
        count_constrained(5, "P", "weird")
    with pytest.raises(InvalidArgument):
        count_constrained(5, "P", "max_part")  # k missing


def test_caps():
    with pytest.raises(InvalidArgument):
        p_oracle(-1)
    with pytest.raises(InvalidArgument, match=r"^oracle enumeration capped at n <= 80, got 81$"):
        p_oracle(ORACLE_CAP + 1)


@pytest.mark.parametrize("enumerate_", [enumerate_partitions, enumerate_strict])
def test_caps_checked_before_iteration(enumerate_):
    with pytest.raises(InvalidArgument):
        enumerate_(-1)
    with pytest.raises(InvalidArgument, match=r"^oracle enumeration capped at n <= 80, got 81$"):
        enumerate_(ORACLE_CAP + 1)
    # the cap itself is allowed; nothing walks the 1.6e7 partitions of 80 here
    enumerate_(ORACLE_CAP)


def test_runs_count_as_their_partitions():
    # Every constraint reads only (largest, smallest, k), so counting by runs
    # is exact when each run's weight on its (largest, smallest) pair adds up
    # to what the listing, one partition at a time, gives.
    for n in range(1, 46):
        by_run = Counter()
        for x, m, c in _zs1(n):
            by_run[x[0], x[m - 1]] += c
        assert by_run == Counter(map(itemgetter(0, -1), enumerate_partitions(n))), n


@pytest.mark.parametrize("n", [2, 4, 6])
def test_all_twos_run_ends_at_ones(n):
    # 2^(n/2) splits down to 2 1^(n-2) in one run, and the first part's own
    # split, to 1^n, is a run of its own
    steps = [(x[0], x[m - 1], c) for x, m, c in _zs1(n)]
    twos = [(2, 2, 1)] + ([(2, 1, n // 2 - 1)] if n > 2 else [])
    assert steps[-len(twos) - 1 :] == twos + [(1, 1, 1)]
