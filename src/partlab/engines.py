"""Six independent exact evaluators for the partition count p(n).

Every engine shares one skeleton: a per-instance table p(0), p(1), ... that
only grows, and a work counter .recurrent_terms. Asking for p(n) appends
_next(m) for m = len(table) .. n, in order, so _next(m) may read p(0..m-1)
and whatever side tables earlier calls built. Each engine supplies only its
_next(m): the recurrence body, which returns p(m) and adds to the counter
one for each term of its recurrence that reads a previously computed table
value. Constants do not count. The counter counts the recurrence's terms,
not machine reads, so it does not move with how an engine forms its sums.
It is what makes the cost claims testable: the euler recurrence has
O(sqrt n) terms per step, the integral one Theta(n), so euler's cumulative
counter stays strictly below integral's from n = 20 on. A sweep p(0..n) and
a cold p(n) build the same tables and count the same terms.

euler sums over two lists of pentagonal offsets, one per sign of e_k, and
integral by parts, over two lists of f's changes (at pentagonal offsets)
against prefix sums of p: O(sqrt n) reads a step, as C-level sums with no
multiplications, each list read by an itemgetter rebuilt only when it grows.
sigma's sum is an online convolution, since sigma is known in advance and p
arrives one value at a time: short lags are summed directly, long ones in
products of aligned blocks of p, each one C-level multiply; the blocks that
close at one step are summed as one packed int and unpacked once.
minpart stores each row only up to half its index, past which it holds zeros
and a final 1, and subtracts only where the second read lies in such a head,
for k up to a third of the step; the cells above are copies of the previous
row's, and the skipped reads, all zeros, still count as terms.
bounded and maxpart fill each column or diagonal of their two-parameter table
as one C-level running sum (itertools.accumulate) with no per-cell Python
loop: bounded's column m is a running sum of reads along an anti-diagonal,
and maxpart's diagonal d a running difference from p(d) down.

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

from collections import deque
from enum import Enum
from itertools import accumulate, chain, count, islice, repeat
from math import isqrt
from operator import add, getitem, itemgetter, mul, or_, sub
from typing import Callable, Sequence

from .coefficients import _exact_div, integrated_f, pentagonal_pairs, sigma_table
from .errors import InvalidArgument, nonnegative


class EngineKind(str, Enum):
    EULER = "euler"
    INTEGRAL = "integral"
    SIGMA = "sigma"
    MINPART = "minpart"
    BOUNDED = "bounded"
    MAXPART = "maxpart"

    def __str__(self) -> str:  # else f"{kind}" reads "EngineKind.SIGMA" from Python 3.11 on
        return self.value


class Engine:
    """The shared skeleton: the p table, the counter and the grow loop."""

    def __init__(self) -> None:
        self._p = [1]
        self.recurrent_terms = 0

    def p(self, n: int) -> int:
        nonnegative("n", n)
        while len(self._p) <= n:
            self._p.append(self._next(len(self._p)))
        return self._p[n]


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
        self._read_plus = self._read_minus = _reader([])
        self._pairs = pentagonal_pairs()
        self._g, self._sign = next(self._pairs)  # the next offset, not yet listed

    def _next(self, m: int) -> int:
        if m == self._g:
            (self._plus if self._sign > 0 else self._minus).append(-m)
            self._read_plus, self._read_minus = _reader(self._plus), _reader(self._minus)
            self._g, self._sign = next(self._pairs)
        self.recurrent_terms += len(self._plus) + len(self._minus)
        # the table holds p(0..m-1), so its item -g is p(m - g)
        p = self._p
        return sum(self._read_plus(p)) - sum(self._read_minus(p))


class IntegralEngine(Engine):
    """Integrated recurrence p(n) = 1 + sum f_k p(n-k); counts only nonzero f_k.

    The sum is taken by parts against S(i) = p(0) + .. + p(i), as
    sum_{j=1..m} (f_j - f_{j-1}) S(m-j), f_0 read as 0. Each change d at j
    lists |d| copies of -j, in _up or _down by its sign: exact for any int f.
    """

    def __init__(self) -> None:
        super().__init__()
        self._f: tuple[int, ...] = ()  # f_0 read as 0; the first _next builds it
        self._sums = [0]  # S(-1), S(0), ..: at step m its item -j is S(m - j)
        self._up: list[int] = []
        self._down: list[int] = []
        self._read_up = self._read_down = _reader([])
        self._nonzero = 0  # of f_1..f_m at step m

    def _next(self, m: int) -> int:
        if len(self._f) <= m:
            self._f = (0, *integrated_f(2 * m).values[1:])
        f, sums = self._f, self._sums
        sums.append(sums[-1] + self._p[m - 1])
        d = f[m] - f[m - 1]
        if d:
            (self._up if d > 0 else self._down).extend(repeat(-m, abs(d)))
            self._read_up, self._read_down = _reader(self._up), _reader(self._down)
        self._nonzero += f[m] != 0
        self.recurrent_terms += self._nonzero
        return 1 + sum(self._read_up(sums)) - sum(self._read_down(sums))


def _reader(offsets: list[int]) -> Callable[[Sequence[int]], Sequence[int]]:
    """The items of a table at offsets, read in one C-level pass.

    itemgetter needs one index at least and returns the bare item for exactly
    one, so lists of fewer than two offsets, held by the first steps, are read
    by a comprehension.
    """
    if len(offsets) > 1:
        return itemgetter(*offsets)
    return lambda table: [table[i] for i in offsets]


class SigmaEngine(Engine):
    """Divisor-sum recurrence with checked exact division, summed online.

    p(m) needs sum_{k=1..m} sigma(k) p(m-k). The lags k < SHORT are summed at
    step m. A lag k >= SHORT has the level L = 2^floor(log2 k) >= SHORT, and
    the pairs of level L meet block by block: once p(m-1) closes an aligned
    block p[m-L : m], one product of it and sigma[L : 2L] gives the block's
    sums for steps m .. m+2L-2, which wait in _acc. So each pair (k, m-k) is
    summed once, by its level, no later than step m. SHORT is a power of two,
    and the blocks of size SHORT, 2 SHORT, .., up to the largest power of two
    dividing m, are those that close at step m. Their sums all start at step
    m, so one packed sum of their products (_block_sums) gives them all, with
    one unpack and one pass over _acc per step.
    """

    SHORT = 32

    def __init__(self) -> None:
        super().__init__()
        # sigma(0..2L-1) for the largest block size L closed so far, or SHORT
        self._sigma = sigma_table(2 * self.SHORT - 1)
        self._acc = [0] * self.SHORT  # _acc[m]: the block sums for step m

    def _next(self, m: int) -> int:
        short, p, acc = self.SHORT, self._p, self._acc
        low = m & -m  # the largest power of two dividing m
        if len(self._sigma) == low:  # m = 2L: the first block of size 2L closes
            self._sigma = sigma_table(2 * low - 1)
        sig = self._sigma
        if low >= short:
            sizes = [short << i for i in range((low // short).bit_length())]
            sums = _block_sums(p[m - low : m], [sig[size : 2 * size] for size in sizes])
            end = m + len(sums)
            acc.extend(repeat(0, end - len(acc)))
            acc[m:end] = map(add, acc[m:end], sums)
        # sigma(1..SHORT-1) against p(m-1), p(m-2), ..; map stops at p(0)
        total = sum(map(mul, sig[1:short], reversed(p))) + acc[m]
        self.recurrent_terms += m
        return _exact_div(total, m, "p({})")


def _block_sums(a: list[int], blocks: list[list[int]]) -> list[int]:
    """The 2 len(a) - 1 coefficients of the sum, over the lists b in blocks,
    of (sum_i a_i x^i)(sum_j b_j x^j), a read as its last len(b) values; for
    nonnegative ints, each b no longer than a and none empty.

    Each list is packed into an int, one w-byte slot per value (Kronecker
    substitution), a once, and a's last len(b) values are its top slots. The
    products are summed as ints and unpacked once. A coefficient sums at most
    len(b) products per block, so it stays below 2^(bits(max a) + bits(max of
    the b) + bits(sum of len(b))) <= 2^(8w): no slot carries into the next, and
    the sum's slots are the coefficients, exactly.
    """
    bits = max(a).bit_length() + max(map(max, blocks)).bit_length()
    w = (bits + sum(map(len, blocks)).bit_length() + 7) // 8
    packed = _pack(a, w)
    total = sum((packed >> 8 * w * (len(a) - len(b))) * _pack(b, w) for b in blocks)
    size = w * (2 * len(a) - 1)
    data = total.to_bytes(size, "little")
    return [int.from_bytes(data[i : i + w], "little") for i in range(0, size, w)]


def _pack(values: list[int], w: int) -> int:
    slots = map(int.to_bytes, values, repeat(w), repeat("little"))
    return int.from_bytes(b"".join(slots), "little")


class MinPartEngine(Engine):
    """Counts by smallest part.

    row_m[k] holds the number of partitions of m with smallest part k:
    row_m[1] = p(m-1) and row_m[k] = row_{m-1}[k-1] - row_{m-k}[k-1]. A
    partition of r whose smallest part exceeds r/2 has one part, so row_r
    holds zeros past r/2 and then row_r[r] = 1. Row r stores only its head,
    the cells up to r//2 (row 1 stores its final 1, p(0)). The read
    row_{m-k}[k-1] lies past that head exactly when k > (m+2)/3; there it
    is a zero, since k-1 = m-k only at k = (m+1)/2, past the cells row m
    stores. So row m subtracts for k = 2..(m+2)//3 and copies
    row_{m-1}[k-1] for the k above, up to m//2, and p(m) sums the head and
    adds the final 1. Each cell k >= 2 still counts its two reads, zero or
    not. Step m reads no row below m - (m+2)//3, a bound that rises by at
    most one a step, so step m drops row m - 1 - m//3, the one just below
    step m + 1's.
    """

    def __init__(self) -> None:
        super().__init__()
        self._rows: list[list[int] | None] = [[]]

    def _next(self, m: int) -> int:
        rows = self._rows
        prev = rows[m - 1]
        third = (m + 2) // 3
        row = [0, self._p[m - 1]]  # index 0 unused
        row += [prev[k - 1] - rows[m - k][k - 1] for k in range(2, third + 1)]
        # past third the second read is a zero past row m-k's head
        row += prev[third : m // 2]
        # past m//2 the row holds zeros, then row_m[m] = 1; row 1's head holds it
        total = sum(row) + (m > 1)
        rows.append(row)
        # step m + 1 reads rows m + 1 - k for k <= (m + 3) // 3, none below m - m//3
        rows[m - 1 - m // 3] = None
        # p(m-1), two reads per cell k = 2..m, then m reads for the row sum
        self.recurrent_terms += 3 * m - 1
        return total


class BoundedEngine(Engine):
    """Counts with all parts below a bound.

    blt[k][j] holds the number of partitions of j with every part < k, for
    k >= 2: blt[k][j] = p(j) for j < k, blt[2][j] = 1 for j >= 2, and
    blt[k][j] = blt[k-1][j] + blt[k][j-k+1] for j >= k - 1 (a partition
    either has no part k-1, or one can be taken off). So column m is one
    running sum from blt[2][m] = 1 over the reads blt[k][m-k+1], k = 3..m,
    and p(m) = 1 + blt[m][m]. The reads with k > (m+1)//2 fall in the wedge
    j < k and come from the p table. Row k >= 3 stores only its cells j >= k,
    as a queue: step j appends blt[k][j], and step j+k-1, its one read, pops
    it. Row 2, all ones, is never read.

    The counter adds, at step m, the terms of the stepped form blt[k+1][m] =
    sum_i blt[k][m - ik] over k = 2..m-1, the m reads p(0..m-1) of row m's
    wedge and the read of blt[m][m]: m - 2 + D(m) in all, with D(m) =
    sum_{k=1..m} m//k, summed up to isqrt(m) by the hyperbola method.
    """

    def __init__(self) -> None:
        super().__init__()
        self._p.append(1)
        self._rows: list[deque[int]] = [deque(), deque()]  # rows 0 and 1 unused

    def _next(self, m: int) -> int:
        rows, h = self._rows, (m + 1) // 2
        reads = chain(map(deque.popleft, islice(rows, 3, h + 1)), reversed(self._p[1 : m - h + 1]))
        # + allocates each sum one spare digit, so a two-digit sum takes a
        # 48-byte pymalloc block, not a 32-byte one; | 0 copies it at its
        # exact size
        column = map(or_, accumulate(reads, initial=1), repeat(0))
        rows.append(deque())
        # column m into rows 2..m; append returns None, so any() runs to the end
        any(map(deque.append, islice(rows, 2, None), column))
        s = isqrt(m)
        self.recurrent_terms += m - 2 + 2 * sum(map(m.__floordiv__, range(1, s + 1))) - s * s
        return 1 + rows[m][0]


class MaxPartEngine(Engine):
    """Counts by largest part.

    aux(n, k) counts partitions of n with largest part exactly k. Inside the
    terminal wedge (n <= 2k) aux(n, k) = p(n - k). Outside it the step
    aux(n, k) = aux(n+1, k+1) - aux(n-k, k+1) grows both arguments; n - 2k
    shrinks every step, so a chain from (n0, k0) terminates within n0 - 2k0
    steps.

    The first step stays on the diagonal n - k = d; the second, aux(d, k+1),
    lies in row d < n, which an earlier call already filled. So the table is
    kept by diagonal: diag[d][k - 2] holds aux(d + k, k) for 2 <= k <= d. Row
    m = d + 2 is the first to need diagonal d; the chain from (m, 2) climbs
    it to the terminal (2d, d), so _next(m) fills it as one running
    difference from that terminal back down, reading p for the wedge, then
    sums row m: p(m) = 1 + sum_{k=2..m} aux(m, k). No step after the fill of
    diagonal 2i reads diagonal i, so that fill drops it.
    """

    def __init__(self) -> None:
        super().__init__()
        self._p.append(1)
        self._diag: list[list[int] | None] = []  # row m appends diagonal m - 2

    def _next(self, m: int) -> int:
        p, diags, d = self._p, self._diag, m - 2
        diag: list[int] = []
        if d >= 2:
            # aux(d, j) for j = d down to 3: p(d - j) while j > d // 2, then
            # diag[d - j][j - 2]; map stops with the range, at j = 3
            w = max(d // 2, 2)
            reads = chain(p[: d - w], map(getitem, diags[d - w :], range(w - 2, 0, -1)))
            diag += accumulate(reads, sub, initial=p[d])
            diag.reverse()
            if d % 2 == 0:
                # no later step reads diagonal d // 2: from d = 4 on, diags[d - w:]
                # starts at d // 2 here and above it from the next step on, and
                # each row sum's diags[m - half:] starts above it (0 and 1 are empty)
                diags[d // 2] = None
            # the terminal, then two reads per step
            self.recurrent_terms += 2 * d - 3
        diags.append(diag)
        # wedge cells of row m read p(m - k) once each; then the row sum
        self.recurrent_terms += (m + 1) // 2 + m - 1
        # aux(m, k) for k > m // 2 is p(m - k), else diag[m - k][k - 2]
        half = m // 2
        wedge = sum(p[: m - half])
        return 1 + wedge + sum(map(getitem, reversed(diags[m - half :]), count()))


_ENGINE_CLASSES = {
    EngineKind.EULER: EulerEngine,
    EngineKind.INTEGRAL: IntegralEngine,
    EngineKind.SIGMA: SigmaEngine,
    EngineKind.MINPART: MinPartEngine,
    EngineKind.BOUNDED: BoundedEngine,
    EngineKind.MAXPART: MaxPartEngine,
}


def make_engine(kind: EngineKind | str) -> Engine:
    engine_class = _ENGINE_CLASSES.get(kind) if isinstance(kind, str) else None
    if engine_class is None:
        raise InvalidArgument(f"{kind!r} is not a valid EngineKind")
    return engine_class()
