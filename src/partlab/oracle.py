"""Brute-force partition oracle.

Partitions are represented as nonincreasing tuples of positive ints; strict
partitions as strictly decreasing tuples. Everything here counts by explicit
enumeration, so it is slow and trusted.

All partitions are walked by ZS1 (Zoghbi & Stojmenovic, "Fast algorithms for
generating integer partitions", 1998): one mutable buffer, rewritten in place
in descending lexicographic order at constant amortised cost per partition.
Counting reads only the largest and smallest part of each step and builds no
tuple; listing copies the buffer once per partition. Strict partitions are
walked in the same order over one list of parts, with a fresh tuple per
partition. The cost is still one step per partition, and p(80) is about 1.6e7
partitions, so enumeration refuses n > ORACLE_CAP.

Constraint vocabulary for count_constrained:

    "none"        no restriction
    "parts_below" every part strictly less than k
    "parts_above" every part strictly greater than k
    "max_part"    largest part equal to k
    "min_part"    smallest part equal to k
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from .errors import InvalidPartition, OracleLimitError

ORACLE_CAP = 80

CONSTRAINTS = ("none", "parts_below", "parts_above", "max_part", "min_part")

# Each constraint as a test on (largest part, smallest part, k) of a nonempty
# partition. The empty partition satisfies exactly the vacuous ones.
_HOLDS = {
    "none": lambda largest, smallest, k: True,
    "parts_below": lambda largest, smallest, k: largest < k,
    "parts_above": lambda largest, smallest, k: smallest > k,
    "max_part": lambda largest, smallest, k: largest == k,
    "min_part": lambda largest, smallest, k: smallest == k,
}
_VACUOUS = ("none", "parts_below", "parts_above")


def _check_n(n: int) -> None:
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n > ORACLE_CAP:
        raise OracleLimitError(
            f"oracle enumeration capped at n <= {ORACLE_CAP}, got {n}"
        )


def validate_partition(parts: Iterable[int], strict: bool = False) -> tuple[int, ...]:
    """Return parts as a canonical tuple, or raise InvalidPartition."""
    t = tuple(parts)
    for p in t:
        if not isinstance(p, int) or p < 1:
            raise InvalidPartition(f"parts must be positive ints, got {t!r}")
    for a, b in zip(t, t[1:]):
        if strict and a <= b:
            raise InvalidPartition(f"not strictly decreasing: {t!r}")
        if not strict and a < b:
            raise InvalidPartition(f"not nonincreasing: {t!r}")
    return t


def enumerate_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Return an iterator over all partitions of n, descending lexicographic.

    enumerate_partitions(4) gives (4,), (3,1), (2,2), (2,1,1), (1,1,1,1).
    n is checked when this is called, not when iteration starts.
    """
    _check_n(n)
    if n == 0:
        return iter([()])
    return (tuple(x[:m]) for x, m in _zs1(n))


def _zs1(n: int) -> Iterator[tuple[list[int], int]]:
    """Walk the partitions of n >= 1 in descending lexicographic order (ZS1).

    Yields (x, m): the partition is x[:m]. x is one buffer, rewritten in place
    by the next step. Every x[i] past h, the index of the last part above 1,
    is 1.
    """
    x = [1] * n
    x[0] = n
    m, h = 1, 0
    yield x, m
    while x[0] != 1:
        if x[h] == 2:
            # ..., 2, 1^j -> ..., 1, 1, 1^j
            x[h] = 1
            m += 1
            h -= 1
        else:
            # lower x[h] to r and refill the rest (x[h:m] summed to t + r)
            # with copies of r and a remainder below r
            r = x[h] - 1
            t = m - h
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            if t == 0:
                m = h + 1
            else:
                m = h + 2
                if t > 1:
                    h += 1
                    x[h] = t
        yield x, m


def enumerate_strict(n: int) -> Iterator[tuple[int, ...]]:
    """Return an iterator over the partitions of n into distinct parts,
    descending lexicographic; n is checked when this is called."""
    _check_n(n)
    if n == 0:
        return iter([()])
    return _strict(n)


def _strict(n: int) -> Iterator[tuple[int, ...]]:
    """Walk the strict partitions of n >= 1 in descending lexicographic order.

    x holds the parts placed so far, rest what is left to place and cap the
    largest part that may come next. Each step fills greedily, then lowers by
    one the last part that can be lowered: the new part nxt and the parts
    after it must sum to rest, the sum from that part on, which distinct
    parts up to nxt can do exactly when nxt(nxt+1)/2 >= rest. A part that
    cannot be lowered by one cannot be lowered further.
    """
    x: list[int] = []
    rest = cap = n
    while True:
        while rest:
            part = min(rest, cap)
            x.append(part)
            rest -= part
            cap = part - 1
        yield tuple(x)
        while x:
            part = x.pop()
            rest += part
            nxt = part - 1
            if nxt * (nxt + 1) // 2 >= rest:
                x.append(nxt)
                rest -= nxt
                cap = nxt - 1
                break
        else:
            return


def _walk(n: int, family: str) -> Iterator[tuple[Sequence[int], int]]:
    """Yield (x, m) for each nonempty partition x[:m] of n in family.

    x may be a buffer reused by the next step; read it before advancing.
    """
    if family not in ("P", "S"):
        raise ValueError(f"family must be 'P' or 'S', got {family!r}")
    _check_n(n)
    if n == 0:
        return iter(())
    if family == "P":
        return _zs1(n)
    return ((parts, len(parts)) for parts in _strict(n))


def count_constrained(
    n: int, family: str = "P", constraint: str = "none", k: int | None = None
) -> int:
    """Count partitions of n in family "P" (all) or "S" (strict) under a constraint.

    The empty partition of 0 satisfies "none", "parts_below" and "parts_above"
    vacuously, and never satisfies "max_part" or "min_part".
    """
    if constraint not in CONSTRAINTS:
        raise ValueError(f"unknown constraint {constraint!r}")
    walk = _walk(n, family)
    if k is None and constraint != "none":
        raise ValueError(f"constraint {constraint!r} needs k")
    holds = _HOLDS[constraint]
    empty = int(n == 0 and constraint in _VACUOUS)
    return empty + sum(1 for x, m in walk if holds(x[0], x[m - 1], k))


def p_oracle(n: int) -> int:
    """p(n) by enumeration."""
    return count_constrained(n, "P", "none")


def s_oracle(n: int) -> int:
    """Number of strict partitions of n, by enumeration."""
    return count_constrained(n, "S", "none")


def max_part_histogram(n: int) -> dict[int, int]:
    """Map largest part -> count, over all nonempty partitions of n.

    One enumeration pass; cheaper than calling count_constrained per k when a
    whole profile is needed. Keys run from the largest part down.
    """
    hist: dict[int, int] = {}
    for x, _ in _walk(n, "P"):
        hist[x[0]] = hist.get(x[0], 0) + 1
    return hist
