"""Six independent exact evaluators for the partition count p(n).

Every engine shares one skeleton: a per-instance table p(0), p(1), ... that
only grows, and a work counter .recurrent_terms. Asking for p(n) appends
_next(m) for m = len(table) .. n, in order, so _next(m) may read p(0..m-1)
and whatever side tables earlier calls built. Each engine supplies only its
_next(m): the recurrence body, which returns p(m) and adds to the counter
one for each previously computed table value it reads. Constants do not
count. The counter is what makes the cost claims testable: the euler engine
touches O(sqrt n) terms per step, the integral engine Theta(n), so euler's
cumulative counter stays strictly below integral's from n = 20 on. A sweep
p(0..n) and a cold p(n) build the same tables and read the same terms.

euler and integral sum exactly the terms they count, through C-level sums
with no multiplications: euler over two lists of pentagonal offsets, one per
sign of e_k, and integral through byte masks of the k with f_k = 1 and with
f_k = -1. The masks rely on |f_k| <= 1, which integral checks as it builds
them.

Engines:

  euler     p(n) = sum_{k>0} e_k p(n-k)
  integral  p(n) = 1 + sum_{k>0} f_k p(n-k)
  sigma     p(n) = (1/n) sum_{k=1..n} sigma(k) p(n-k), division exact
  minpart   composite recurrence over counts by smallest part
  bounded   composite recurrence over counts with bounded parts
  maxpart   composite recurrence over counts by largest part; auxiliary
            steps increase both arguments and terminate within n - 2k steps

All engines agree with each other and with the enumeration oracle; the test
suite enforces this. Every engine loop is bounded by n, so engines take no
budget and ignore PLAB_BUDGET. Instances are single-threaded; share nothing
between threads.
"""

from __future__ import annotations

from enum import Enum
from itertools import compress
from operator import mul

from .coefficients import integrated_f, pentagonal_pairs, sigma_table
from .errors import NonIntegralDivision


class EngineKind(str, Enum):
    EULER = "euler"
    INTEGRAL = "integral"
    SIGMA = "sigma"
    MINPART = "minpart"
    BOUNDED = "bounded"
    MAXPART = "maxpart"

    def __str__(self) -> str:  # argparse-friendly
        return self.value


class Engine:
    """The shared skeleton: the p table, the counter and the grow loop."""

    def __init__(self) -> None:
        self._p = [1]
        self.recurrent_terms = 0

    def p(self, n: int) -> int:
        if n < 0:
            raise ValueError(f"n must be nonnegative, got {n}")
        while len(self._p) <= n:
            self._p.append(self._next(len(self._p)))
        return self._p[n]

    def _next(self, m: int) -> int:
        """p(m), given p(0..m-1) in the table."""
        raise NotImplementedError


class EulerEngine(Engine):
    """Pentagonal recurrence; only pentagonal offsets contribute.

    The offsets g <= m are kept negated in two lists, by the sign of e_g; each
    step appends at most one, since the generalized pentagonal numbers are
    distinct.
    """

    def __init__(self) -> None:
        super().__init__()
        self._plus: list[int] = []
        self._minus: list[int] = []
        self._pairs = pentagonal_pairs()
        self._g, self._sign = next(self._pairs)  # the next offset, not yet listed

    def _next(self, m: int) -> int:
        if m == self._g:
            (self._plus if self._sign > 0 else self._minus).append(-m)
            self._g, self._sign = next(self._pairs)
        plus, minus = self._plus, self._minus
        self.recurrent_terms += len(plus) + len(minus)
        # the table holds p(0..m-1), so its item -g is p(m - g)
        get = self._p.__getitem__
        return sum(map(get, plus)) - sum(map(get, minus))


class IntegralEngine(Engine):
    """Integrated recurrence p(n) = 1 + sum f_k p(n-k); counts only nonzero f_k.

    Every f_k is -1, 0 or 1, so the sum is that of the p(n-k) with f_k = 1
    less that of those with f_k = -1. _pos and _neg mark those k, one byte per
    k, and are rebuilt with _f; the rebuild checks that they cover every
    nonzero f_k.
    """

    def __init__(self) -> None:
        super().__init__()
        self._f: tuple[int, ...] = (-1,)
        self._pos = self._neg = b""

    def _next(self, m: int) -> int:
        if len(self._f) <= m:
            f = integrated_f(2 * m).values
            pos, neg = bytes(v == 1 for v in f), bytes(v == -1 for v in f)
            if pos.count(1) + neg.count(1) != len(f) - f.count(0):
                k, v = next((k, v) for k, v in enumerate(f) if v not in (-1, 0, 1))
                raise ValueError(f"f-sequence value f_{k} = {v} outside -1..1")
            self._f, self._pos, self._neg = f, pos, neg
        # f_1..f_m against p(m-1)..p(0); a zero f_k adds nothing and reads no p
        pos, neg = self._pos[1 : m + 1], self._neg[1 : m + 1]
        self.recurrent_terms += pos.count(1) + neg.count(1)
        p = self._p
        return 1 + sum(compress(reversed(p), pos)) - sum(compress(reversed(p), neg))


class SigmaEngine(Engine):
    """Divisor-sum recurrence with checked exact division."""

    def __init__(self) -> None:
        super().__init__()
        self._sigma = [0]

    def _next(self, m: int) -> int:
        if len(self._sigma) <= m:
            self._sigma = sigma_table(2 * m)
        # sigma(1..m) against p(m-1)..p(0)
        total = sum(map(mul, self._sigma[1 : m + 1], reversed(self._p)))
        self.recurrent_terms += m
        q, r = divmod(total, m)
        if r != 0:
            raise NonIntegralDivision(f"p({m}): {total} not divisible by {m}")
        return q


class MinPartEngine(Engine):
    """Counts by smallest part.

    row_m[k] holds the number of partitions of m with smallest part k:
    row_m[1] = p(m-1), row_m[k] = row_{m-1}[k-1] - row_{m-k}[k-1], and the
    count is zero once k exceeds the argument, so the second read is zero
    for k > (m+1)/2. p(m) sums the row. Each cell k >= 2 counts its two
    reads, zero or not.
    """

    def __init__(self) -> None:
        super().__init__()
        self._rows: list[list[int]] = [[]]

    def _next(self, m: int) -> int:
        rows = self._rows
        prev = rows[m - 1]
        half = (m + 1) // 2
        row = [0, self._p[m - 1]]  # index 0 unused
        row += [prev[k - 1] - rows[m - k][k - 1] for k in range(2, half + 1)]
        row += prev[half:m]
        rows.append(row)
        # p(m-1), two reads per cell k = 2..m, then m reads for the row sum
        self.recurrent_terms += 3 * m - 1
        return sum(row)


class BoundedEngine(Engine):
    """Counts with all parts below a bound.

    blt[k][j] holds the number of partitions of j with every part < k, for
    k >= 2: blt[k][j] = p(j) for j < k, blt[2][j] = 1 for j >= 2, and
    blt[k][j] = sum_i blt[k-1][j - i(k-1)] otherwise. Growing to m appends
    column m to rows 2..m-1 and adds row m; p(m) = 1 + blt[m][m].
    """

    def __init__(self) -> None:
        super().__init__()
        self._p.append(1)
        self._blt: list[list[int]] = [[], []]  # rows 0 and 1 unused

    def _next(self, m: int) -> int:
        blt = self._blt
        blt.append(self._p[:m])  # row m below the diagonal reads p(0..m-1)
        blt[2].append(1)
        terms = m + 1  # those reads, and blt[m][m] when p(m) closes
        for step in range(2, m):
            blt[step + 1].append(sum(blt[step][m % step :: step]))
            terms += m // step + 1
        self.recurrent_terms += terms
        return 1 + blt[m][m]


class MaxPartEngine(Engine):
    """Counts by largest part.

    aux(n, k) counts partitions of n with largest part exactly k. Inside the
    terminal wedge (n <= 2k) aux(n, k) = p(n - k). Outside it the step
    aux(n, k) = aux(n+1, k+1) - aux(n-k, k+1) grows both arguments; n - 2k
    shrinks every step, so a chain from (n0, k0) terminates within n0 - 2k0
    steps.

    The first step stays on the diagonal n - k = d; the second, aux(d, k+1),
    lies in row d < n, which an earlier call already filled. So the table is
    kept by diagonal: diag[d][k] holds aux(d + k, k) for 2 <= k <= d. Row
    m = d + 2 is the first to need diagonal d; the chain from (m, 2) climbs
    it to the terminal (2d, d), so _next(m) fills it from that terminal
    back down, then sums row m: p(m) = 1 + sum_{k=2..m} aux(m, k).
    """

    def __init__(self) -> None:
        super().__init__()
        self._p.append(1)
        self._diag: list[list[int]] = []  # row m appends diagonal m - 2

    def _aux(self, n: int, k: int) -> int:
        d = n - k
        return self._diag[d][k] if k <= d else self._p[d]

    def _next(self, m: int) -> int:
        d = m - 2
        diag = [0] * (d + 1)
        if d >= 2:
            diag[d] = self._p[d]
            for k in range(d - 1, 1, -1):
                diag[k] = diag[k + 1] - self._aux(d, k + 1)
            # the terminal, then two reads per step
            self.recurrent_terms += 2 * d - 3
        self._diag.append(diag)
        # wedge cells of row m read p(m - k) once each; then the row sum
        self.recurrent_terms += (m + 1) // 2 + m - 1
        return 1 + sum(self._aux(m, k) for k in range(2, m + 1))


_ENGINE_CLASSES = {
    EngineKind.EULER: EulerEngine,
    EngineKind.INTEGRAL: IntegralEngine,
    EngineKind.SIGMA: SigmaEngine,
    EngineKind.MINPART: MinPartEngine,
    EngineKind.BOUNDED: BoundedEngine,
    EngineKind.MAXPART: MaxPartEngine,
}


def make_engine(kind: EngineKind | str) -> Engine:
    return _ENGINE_CLASSES[EngineKind(kind)]()
