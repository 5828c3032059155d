"""Brute-force partition oracle.

Partitions are represented as nonincreasing tuples of positive ints; strict
partitions as strictly decreasing tuples. Everything here counts by explicit
enumeration, so it is slow and trusted.

All partitions are walked by ZS1 (Zoghbi & Stojmenovic, "Fast algorithms for
generating integer partitions", 1998): one mutable buffer, rewritten in place
in descending lexicographic order at constant amortised cost per partition.
Strict partitions are walked in the same order over one list of parts, which
the walk rewrites in place as ZS1 does its buffer; only listing copies it into
a tuple. p(80) is about 1.6e7 partitions, so enumeration refuses
n > ORACLE_CAP.

Listing visits every partition and copies the buffer once for each. Counting
reads only the largest and the smallest part of a partition, and takes each
run of ZS1's 2 -> 1,1 splits in one step. When the last part above 1 is a 2,
the next partition replaces it by 1, 1 and keeps every part before it. If the
part before it is a 2 as well, the step after splits that one, and so on down
the block of 2s. So while the split is not of the first part, each partition
of the run keeps the first part, its largest, and ends in a 1, its smallest.
Each constraint is a test on (largest, smallest, k) alone, and the histogram
is keyed by the largest part, so a run's partitions all pass or all fail: one
test, weighted by the run's length, counts the run exactly as a test of each
partition would. The run stops short of the first part. In 2^j 1^i that
part's own split gives 1^n, whose largest part is 1, so 1^n is counted alone.
"none" needs no test, so p(n) and the strict count only add the weights. At
n = 60, 74% of ZS1's steps are such splits and 54% continue a run, and the
walk by runs takes 45% as many steps as there are partitions. Listing gains
nothing from runs: building each partition's tuple is most of its cost, and
expanding a run back into its partitions measured slower than walking it. So
listing takes one partition per step, and the walk builds each tuple itself,
with no generator between it and the caller.

Constraint vocabulary for count_constrained:

    "none"        no restriction
    "parts_below" every part strictly less than k
    "parts_above" every part strictly greater than k
    "max_part"    largest part equal to k
    "min_part"    smallest part equal to k
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from operator import itemgetter

from .errors import InvalidArgument, integer, nonnegative

ORACLE_CAP = 80

# Each constraint as a test on (largest part, smallest part, k) of a nonempty
# partition; "none" needs no test. The empty partition satisfies exactly the
# vacuous ones.
_HOLDS = {
    "none": None,
    "parts_below": lambda largest, smallest, k: largest < k,
    "parts_above": lambda largest, smallest, k: smallest > k,
    "max_part": lambda largest, smallest, k: largest == k,
    "min_part": lambda largest, smallest, k: smallest == k,
}
_VACUOUS = ("none", "parts_below", "parts_above")


def _check_n(n: int) -> None:
    if nonnegative("n", n) > ORACLE_CAP:
        raise InvalidArgument(f"oracle enumeration capped at n <= {ORACLE_CAP}, got {n}")


def enumerate_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Return an iterator over all partitions of n, descending lexicographic.

    enumerate_partitions(4) gives (4,), (3,1), (2,2), (2,1,1), (1,1,1,1).
    n is checked when this is called, not when iteration starts.
    """
    _check_n(n)
    if n == 0:
        return iter([()])
    return _zs1(n, listing=True)


def _zs1(n: int, listing: bool = False) -> Iterator[tuple]:
    """Walk the partitions of n >= 1 in descending lexicographic order (ZS1).

    Listing yields each partition as a tuple, one step per partition.
    Otherwise it yields (x, m, c): the partition x[:m] ends a stretch of c
    partitions that share its largest part x[0] and its smallest part x[m-1],
    and a run of 2 -> 1,1 splits is one step (the module docstring says why
    that is safe to count). x is one buffer, rewritten in place by the next
    step. Every x[i] past h, the index of the last part above 1, is 1.
    """
    x = [1] * n
    x[0] = n
    m, h = 1, 0
    yield tuple(x[:m]) if listing else (x, m, 1)
    while x[0] != 1:
        if x[h] == 2:
            # ..., 2, 1^j -> ..., 1, 1, 1^j
            x[h] = 1
            m += 1
            h -= 1
            if not listing and h > 0 and x[h] == 2:
                # and so on down the 2s before it, short of x[0]
                start = m
                while h > 0 and x[h] == 2:
                    x[h] = 1
                    m += 1
                    h -= 1
                yield x, m, m - start + 1
                continue
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
        yield tuple(x[:m]) if listing else (x, m, 1)


def enumerate_strict(n: int) -> Iterator[tuple[int, ...]]:
    """Return an iterator over the partitions of n into distinct parts,
    descending lexicographic; n is checked when this is called."""
    _check_n(n)
    return map(tuple, _strict(n))


def _strict(n: int) -> Iterator[list[int]]:
    """Walk the strict partitions of n >= 0 in descending lexicographic order.

    x holds the parts placed so far, rest what is left to place and cap the
    largest part that may come next. Each step fills greedily, then lowers by
    one the last part that can be lowered: the new part nxt and the parts
    after it must sum to rest, the sum from that part on, which distinct
    parts up to nxt can do exactly when nxt(nxt+1)/2 >= rest. A part that
    cannot be lowered by one cannot be lowered further. Each partition is
    yielded as x itself, which the next step rewrites.
    """
    x: list[int] = []
    rest = cap = n
    while True:
        while rest:
            part = min(rest, cap)
            x.append(part)
            rest -= part
            cap = part - 1
        yield x
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


def _walk(n: int, family: str) -> Iterator[tuple[Sequence[int], int, int]]:
    """Yield (x, m, c) for the nonempty partitions of n in family: x[:m] is
    one of them, and c of them share its largest and its smallest part.

    x may be a buffer reused by the next step; read it before advancing.
    """
    if family not in ("P", "S"):
        raise InvalidArgument(f"family must be 'P' or 'S', got {family!r}")
    _check_n(n)
    if n == 0:
        return iter(())
    if family == "P":
        return _zs1(n)
    return ((parts, len(parts), 1) for parts in _strict(n))


def count_constrained(
    n: int, family: str = "P", constraint: str = "none", k: int | None = None
) -> int:
    """Count partitions of n in family "P" (all) or "S" (strict) under a constraint.

    The empty partition of 0 satisfies "none", "parts_below" and "parts_above"
    vacuously, and never satisfies "max_part" or "min_part". Any int k is judged.
    """
    if not isinstance(constraint, str) or constraint not in _HOLDS:
        raise InvalidArgument(f"unknown constraint {constraint!r}")
    walk = _walk(n, family)
    if k is None and constraint != "none":
        raise InvalidArgument(f"constraint {constraint!r} needs k")
    if k is not None:
        integer("k", k)
    holds = _HOLDS[constraint]
    empty = int(n == 0 and constraint in _VACUOUS)
    if holds is None:
        return empty + sum(map(itemgetter(2), walk))
    return empty + sum(c for x, m, c in walk if holds(x[0], x[m - 1], k))


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
    for x, _, c in _walk(n, "P"):
        hist[x[0]] = hist.get(x[0], 0) + c
    return hist
