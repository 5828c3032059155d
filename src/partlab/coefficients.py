"""Coefficient sequences for partition recurrences, in exact arithmetic.

Three sequences share the vocabulary of this package:

  e_n  pentagonal sign sequence: e_n = (-1)^(|k|+1) when n = k(3k+-1)/2 for
       some integer k (so e_0 = -1 with k = 0), else 0.
  f_n  the integrated sequence, f_n = sum of e_0..e_n. Always in {-1, 0, 1}.
  c_n  series coefficients of -prod_{j>=2} (1 - x^j). Equals f_n everywhere.

Each sequence is also computable through an independent second route (product
expansion or a divisor-sum recurrence with exact division), which the test
suite plays against the definitions.

The product routes still multiply by every factor (1 - x^j), largest j first:
prod_{i>j} (1 - x^i) sums over partitions into distinct parts above j (Euler),
so factor j moves only degree j and degrees above 2j: half the ascending slice
updates. Both recurrences run through one loop that sums only the nonzero
weights it has itself computed: e_t for e, and for c, summed by parts (Abel
1826), its own changes c_t - c_{t-1}; both are nonzero only at the generalized
pentagonal numbers. A sequence with many changes would come out just as exact,
only slower. Each recurrence reads only its own sigma table and earlier values
and checks every division, so no route reads another route or the closed form.
"""

from __future__ import annotations

from itertools import accumulate, count
from math import isqrt
from operator import add, sub
from typing import Iterator, Sequence

from ._value import Value
from .errors import InvalidArgument, NonIntegralDivision, nonnegative

_KIND_NAMES = ("e", "f", "c")


class CoeffSeq(Value):
    """Finite prefix of one of the coefficient sequences.

    values[i] is the coefficient at index i. Kind "e" and "f" enforce values
    in {-1, 0, 1}; kind "c" additionally pins c_0 = -1 and c_1 = 0.

    An immutable value (see _value), compared and hashed by (kind, values).
    """

    __slots__ = ("kind", "values")

    kind: str
    values: tuple[int, ...]

    def __init__(self, kind: str, values: Sequence[int]) -> None:
        if kind not in _KIND_NAMES:
            raise InvalidArgument(f"kind must be one of {_KIND_NAMES}, got {kind!r}")
        try:
            values = tuple(values)
        except TypeError:
            raise InvalidArgument(f"{kind}-sequence values must be ints, got {values!r}") from None
        if not {int}.issuperset(map(type, values)):  # C-level passes; no bool, no float
            bad = [v for v in values if type(v) is not int]
            raise InvalidArgument(f"{kind}-sequence values must be ints, got {bad[:4]}")
        if not {-1, 0, 1}.issuperset(values):
            bad = [v for v in values if v not in (-1, 0, 1)]
            raise InvalidArgument(f"{kind}-sequence values outside -1..1: {bad[:4]}")
        if kind == "c":
            if values and values[0] != -1:
                raise InvalidArgument("c-sequence must start with -1")
            if len(values) > 1 and values[1] != 0:
                raise InvalidArgument("c-sequence must have 0 at index 1")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "values", values)

    def __getitem__(self, i: int) -> int:
        return self.values[i]

    def __len__(self) -> int:
        return len(self.values)


def pentagonal_index(n: int) -> int | None:
    """Inverse of k -> k(3k-1)/2 over all integers k, or None.

    Positive k answers n = (3k^2 - k)/2, negative k answers n = (3|k|^2 + |k|)/2,
    and 0 answers n = 0. At most one k exists for a given n.
    """
    nonnegative("n", n)
    root = isqrt(24 * n + 1)
    if root * root != 24 * n + 1:
        return None
    q, r = divmod(root, 6)  # a square 24n + 1 has an odd root prime to 3: r is 5 or 1
    return q + 1 if r == 5 else -q


def euler_e(n: int) -> int:
    """e_n: signed indicator of the generalized pentagonal numbers."""
    k = pentagonal_index(n)
    if k is None:
        return 0
    return 1 if abs(k) % 2 == 1 else -1


def pentagonal_pairs() -> Iterator[tuple[int, int]]:
    """Yield (m, e_m) for m = 1, 2, 5, 7, 12, 15, ... in increasing order."""
    k = 1
    while True:
        sign = 1 if k % 2 == 1 else -1
        yield k * (3 * k - 1) // 2, sign
        yield k * (3 * k + 1) // 2, sign
        k += 1


def euler_seq(upto: int) -> CoeffSeq:
    """e_0 .. e_upto."""
    nonnegative("upto", upto)
    values = [0] * (upto + 1)
    values[0] = -1
    for m, sign in pentagonal_pairs():
        if m > upto:
            break
        values[m] = sign
    return CoeffSeq("e", tuple(values))


def integrated_f(upto: int) -> CoeffSeq:
    """f_0 .. f_upto, the running sums of e."""
    e = euler_seq(upto)  # checks upto
    return CoeffSeq("f", tuple(accumulate(e.values)))


def sigma_table(upto: int) -> list[int]:
    """sigma(1..upto) by a divisor sieve; index 0 is a 0 filler.

    Each n = s q with s <= q has s <= isqrt(n), so the sieve runs over s and
    adds s + q to n = s q for each q > s, and s alone to n = s^2.
    """
    nonnegative("upto", upto)
    table = [0] * (upto + 1)
    for s in range(1, isqrt(upto) + 1):
        table[s * s] += s
        table[s * (s + 1) :: s] = map(add, table[s * (s + 1) :: s], count(2 * s + 1))
    return table


def _truncated_product(upto: int, first: int) -> list[int]:
    # prod_{first<=j<=upto} (1 - x^j) to degree upto, factor j = upto first; the
    # series then has no degree 1..j, so coeffs[d] -= coeffs[d - j] moves only
    # d = j (by coeffs[0] = 1) and d > 2j, each reading the old value
    coeffs = [0] * (upto + 1)
    coeffs[0] = 1
    for j in range(upto, first - 1, -1):
        coeffs[j] -= 1
        coeffs[2 * j + 1 :] = map(sub, coeffs[2 * j + 1 :], coeffs[j + 1 :])
    return coeffs


def euler_product(upto: int) -> CoeffSeq:
    """Coefficients of prod_{1<=j<=upto} (1 - x^j), truncated at degree upto.

    Equals -e_n termwise; returned with kind "e" since the same value range
    applies. Degree 0 coefficient is +1.
    """
    nonnegative("upto", upto)
    return CoeffSeq("e", tuple(_truncated_product(upto, 1)))


def c_from_product(upto: int) -> CoeffSeq:
    """Coefficients of -prod_{2<=j<=upto} (1 - x^j), truncated at degree upto."""
    nonnegative("upto", upto)
    return CoeffSeq("c", tuple(-v for v in _truncated_product(upto, 2)))


def _exact_div(num: int, den: int, what: str) -> int:
    """num // den, checked; the label what.format(den) is built only on a remainder."""
    q, r = divmod(num, den)
    if r != 0:
        raise NonIntegralDivision(f"{what.format(den)}: {num} not divisible by {den}")
    return q


def _divisor_sum_recurrence(kernel: list[int], kind: str, by_parts: bool) -> CoeffSeq:
    # v_0 = -1, v_n = -(1/n) * sum_{t<n} w_t * kernel[n - t] with every division
    # exact; w_t = v_t, or by_parts w_t = v_t - v_{t-1} with v_{-1} = 0
    values = [-1]
    weights = [(0, -1)]  # (t, w_t) for every nonzero w_t
    label = kind + "_{}"
    for n in range(1, len(kernel)):
        total = sum(kernel[n - t] * w for t, w in weights)
        v = _exact_div(-total, n, label)
        w = v - values[-1] if by_parts else v
        values.append(v)
        if w:
            weights.append((n, w))
    return CoeffSeq(kind, tuple(values))


def c_from_recurrence(upto: int) -> CoeffSeq:
    """c via its divisor-sum recurrence.

    c_0 = -1 and, for n >= 1,
        c_n = -(1/n) * sum_{0<=i<=n-2} (sigma(n-i) - 1) * c_i
    with the division required to be exact. The sum is taken by parts, as
        sum_{0<=t<=n-1} (c_t - c_{t-1}) * K(n-t), where c_{-1} = 0 and
    K(m) = sum_{1<=s<=m} (sigma(s) - 1), so K(0) = K(1) = 0 as sigma(1) = 1.
    """
    kernel = list(accumulate((s - 1 for s in sigma_table(upto)[1:]), initial=0))
    return _divisor_sum_recurrence(kernel, "c", True)


def e_from_recurrence(upto: int) -> CoeffSeq:
    """e via its divisor-sum recurrence.

    e_0 = -1 and, for n >= 1,
        e_n = -(1/n) * sum_{0<=i<=n-1} sigma(n-i) * e_i
    with the division required to be exact, over the nonzero e_i only.
    """
    return _divisor_sum_recurrence(sigma_table(upto), "e", False)


def f_equals_e_predicate(n: int) -> bool:
    """True exactly when f_n = e_n: at n = 0 and on the closed-open bands
    k(3k-1)/2 < n <= k(3k+1)/2 for positive k."""
    if nonnegative("n", n) == 0:
        return True
    k = 1
    while k * (3 * k - 1) // 2 < n:
        if n <= k * (3 * k + 1) // 2:
            return True
        k += 1
    return False
