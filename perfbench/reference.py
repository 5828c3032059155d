"""Reference answers that share no code with partlab.

Counts come from coin-change dynamic programming, coefficient sequences from
the closed form of the generalized pentagonal numbers, and code statistics
from reading the bit string directly. Every benchmark task compares partlab's
answer against one of these.
"""

from __future__ import annotations


def restricted_counts(n_max: int, parts, strict: bool = False) -> list[int]:
    """ways[s] = partitions of s (0 <= s <= n_max) using only the given parts,
    each at most once when strict."""
    ways = [1] + [0] * n_max
    for part in parts:
        if part > n_max:
            continue
        span = range(n_max, part - 1, -1) if strict else range(part, n_max + 1)
        for s in span:
            ways[s] += ways[s - part]
    return ways


def partition_counts(n_max: int) -> list[int]:
    """p(0..n_max)."""
    return restricted_counts(n_max, range(1, n_max + 1))


def strict_counts(n_max: int, least_part: int = 1) -> list[int]:
    """Partitions of 0..n_max into distinct parts >= least_part."""
    return restricted_counts(n_max, range(least_part, n_max + 1), strict=True)


def constrained_count(n: int, family: str, constraint: str, k: int | None) -> int:
    """Count under the oracle's constraint vocabulary, by coin change.

    A largest part equal to k leaves n - k to split into parts <= k (< k
    when strict); a smallest part equal to k leaves n - k for parts >= k
    (> k when strict).
    """
    strict = family == "S"
    if constraint == "none":
        return restricted_counts(n, range(1, n + 1), strict)[n]
    if constraint == "parts_below":
        return restricted_counts(n, range(1, min(k, n + 1)), strict)[n]
    if constraint == "parts_above":
        return restricted_counts(n, range(k + 1, n + 1), strict)[n]
    rest = n - k
    if rest < 0:
        return 0
    if constraint == "max_part":
        top = k - 1 if strict else k
        return restricted_counts(rest, range(1, top + 1), strict)[rest]
    if constraint == "min_part":
        low = k + 1 if strict else k
        return restricted_counts(rest, range(low, rest + 1), strict)[rest]
    raise ValueError(f"unknown constraint {constraint!r}")


def max_part_histogram(n: int) -> dict[int, int]:
    """Largest part -> number of partitions of n with that largest part."""
    return {k: restricted_counts(n - k, range(1, k + 1))[n - k] for k in range(1, n + 1)}


def pentagonal_e(n_max: int) -> list[int]:
    """e_0..e_n_max: -1 at 0, (-1)^(k+1) at k(3k -+ 1)/2 for k >= 1, else 0."""
    e = [0] * (n_max + 1)
    e[0] = -1
    k = 1
    while k * (3 * k - 1) // 2 <= n_max:
        sign = 1 if k % 2 else -1
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g <= n_max:
                e[g] = sign
        k += 1
    return e


def prefix_sums(values: list[int]) -> list[int]:
    out, acc = [], 0
    for v in values:
        acc += v
        out.append(acc)
    return out


def one_indices(bits: str) -> list[int]:
    """Positions of the 1-bits; the leftmost bit has index len(bits) + 1."""
    top = len(bits) + 1
    return [top - i for i, ch in enumerate(bits) if ch == "1"]


def code_valuation(bits: str) -> int:
    return sum(one_indices(bits))


def code_polarity(bits: str) -> int:
    return 1 if bits.count("1") % 2 else -1


def code_of_parts(parts) -> str:
    """Leading-1 word whose 1-bits sit at the given distinct parts >= 2."""
    members = set(parts)
    return "".join("1" if i in members else "0" for i in range(max(parts), 1, -1))
