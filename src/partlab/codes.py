"""Binary path codes for the maxpart reduction plane.

A path in the maxpart reduction graph starts at a startup point (n~, k0) and
takes auxiliary steps that raise k by one: a rising step (n, k) -> (n+1, k+1)
comes from the positive summand of the step rule, a falling step
(n, k) -> (n-k, k+1) from the negative one. The whole path compresses into a
binary word b = b_{l+1} ... b_2, written leftmost-first but indexed from 2 at
the right end, with leading zeros significant:

  * the rightmost 1-bit sits at index k0 (bits below it are zero padding),
  * each bit left of k0, read rightward to leftward, encodes one step:
    0 rising, 1 falling.

Derived quantities: the valuation is the sum of 1-bit indices, the polarity
is -1 to the number of 1-bits plus one, and the edge count is l+1-k0.
Reading 1-bit indices as parts identifies codes with strict partitions into
parts >= 2; the polarity is positive exactly for an odd number of parts.

Paths terminate in the wedge k >= 2, k <= n <= 2k (boundaries included).
decode_path replays a word against a concrete n~ and reports whether the walk
ends in the wedge the first time it touches it; lemma51 evaluates the
arithmetic preconditions that characterize exactly that for words which never
touch the wedge early.

B_j is the set of leading-1 codes with valuation j. The involution on
B_j + B_{j-1} pairs codes of equal polarity across the two sets (rule one)
or of opposite polarity within B_j (rule two), leaving fixed points only at
pentagonal valuations; it is the executable core of the cancellation
argument behind the integrated coefficients.

DecodedWalk and Lemma51Report are NamedTuples, so loading this module never
loads dataclasses (and inspect with it), and each equals the plain tuple of
its fields. PathCode is an immutable value instead (see _value), because it
checks on construction that its word is over 0/1; it is compared and hashed by
its bits and equals no string or tuple.
"""

from __future__ import annotations

from enum import Enum
from itertools import compress
from typing import TYPE_CHECKING, NamedTuple

from ._value import Value
from .errors import InvalidCode, InvalidPartition, NotInDomain, PartlabError
from .oracle import enumerate_strict, validate_partition

if TYPE_CHECKING:
    from .dag import TerminatingPath


class PathCode(Value):
    """Binary word; may be empty. bits[0] is the highest index, len(bits)+1.

    Compared and hashed by bits.
    """

    __slots__ = ("bits",)

    bits: str

    def __init__(self, bits: str) -> None:
        if bits.strip("01"):
            raise InvalidCode(f"code must be over 0/1, got {bits!r}")
        object.__setattr__(self, "bits", bits)

    @property
    def length(self) -> int:
        return len(self.bits)

    @property
    def weight(self) -> int:
        return self.bits.count("1")

    def one_indices(self) -> tuple[int, ...]:
        """Indices of the 1-bits, descending."""
        top = self.length + 1
        return tuple(top - i for i, ch in enumerate(self.bits) if ch == "1")

    @property
    def rightmost_one(self) -> int | None:
        last = self.bits.rfind("1")
        return None if last < 0 else len(self.bits) + 1 - last

    def __str__(self) -> str:
        return self.bits


def as_code(code: "PathCode | str") -> PathCode:
    return code if isinstance(code, PathCode) else PathCode(code)


# maps the byte "0" to NUL, so only the 1-bits of an encoded word are truthy
_ZERO_TO_NUL = bytes.maketrans(b"0", b"\0")


def valuation(code: "PathCode | str") -> int:
    """Sum of 1-bit indices; 0 for all-zero or empty words."""
    bits = as_code(code).bits
    indices = range(len(bits) + 1, 1, -1)
    return sum(compress(indices, bits.encode().translate(_ZERO_TO_NUL)))


def polarity(code: "PathCode | str") -> int:
    """-1 to the number of 1-bits plus one. All-zero words have no polarity."""
    c = as_code(code)
    if c.weight == 0:
        raise InvalidCode(f"polarity undefined for all-zero code {c.bits!r}")
    return 1 if c.weight % 2 == 1 else -1


class Classification(str, Enum):
    TERMINATING_BELOW = "terminating_below_boundary"
    TERMINATING_AT = "terminating_at_boundary"
    NONTERMINATING = "nonterminating"
    ENTERS_EARLY = "enters_region_early"


class DecodedWalk(NamedTuple):
    walk: tuple[tuple[int, int], ...]
    classification: Classification


def decode_path(n_tilde: int, code: "PathCode | str") -> DecodedWalk:
    """Replay a code from startup point (n_tilde, k0) and classify the walk.

    Terminating means the walk meets the terminal wedge for the first time
    exactly at its final vertex; at-boundary additionally has n = 2k there.
    A walk that touches the wedge earlier is no reduction path at all and is
    tagged enters_region_early. All-zero codes raise InvalidCode.
    """
    c = as_code(code)
    k0 = c.rightmost_one
    if k0 is None:
        raise InvalidCode(f"cannot decode all-zero code {c.bits!r}")
    n, k = n_tilde, k0
    walk = [(n, k)]
    # index of the first wedge vertex; k >= k0 >= 2 holds all along the walk
    first = 0 if k <= n <= 2 * k else None
    # the step bits, indices k0 + 1 up to l + 1, read right to left
    for i, ch in enumerate(reversed(c.bits[: len(c.bits) + 1 - k0]), 1):
        if ch == "1":
            n, k = n - k, k + 1
        else:
            n, k = n + 1, k + 1
        walk.append((n, k))
        if first is None and k <= n <= 2 * k:
            first = i
    if first is None:
        cls = Classification.NONTERMINATING
    elif first < len(walk) - 1:
        cls = Classification.ENTERS_EARLY
    elif n == 2 * k:
        cls = Classification.TERMINATING_AT
    else:
        cls = Classification.TERMINATING_BELOW
    return DecodedWalk(tuple(walk), cls)


class Lemma51Report(NamedTuple):
    """Arithmetic path-termination predicates for a code against one n~.

    For codes of genuine reduction paths (walks that never touch the wedge
    early) these characterize the decode classification:

      terminating     n~ - (l+1) <= valuation <= n~
      strictly_below  the same with the lower bound strict
      at_boundary     valuation = n~ - (l+1)
      leftmost_one    b_{l+1} = 1 (implied by strictly_below)
    """

    terminating: bool
    strictly_below: bool
    at_boundary: bool
    leftmost_one: bool


def lemma51(n_tilde: int, code: "PathCode | str") -> Lemma51Report:
    c = as_code(code)
    if c.weight == 0:
        raise InvalidCode(f"termination predicates undefined for {c.bits!r}")
    v = valuation(c)
    low = n_tilde - (c.length + 1)
    return Lemma51Report(
        terminating=low <= v <= n_tilde,
        strictly_below=low < v <= n_tilde,
        at_boundary=v == low,
        leftmost_one=c.bits[0] == "1",
    )


def code_of_path(path: TerminatingPath) -> PathCode:
    """Binary code of a maxpart reduction path (root, aux..., terminal).

    The auxiliary vertices are taken by position: a path lists the root, then
    its auxiliary vertices, then a terminal when j is not None.
    """
    aux = path.vertices[1:] if path.j is None else path.vertices[1:-1]
    if not aux:
        raise ValueError("path has no auxiliary vertices, nothing to encode")
    k0 = aux[0].k
    if k0 < 2:
        raise ValueError(f"startup column {k0} below 2 cannot be coded")
    step_bits = []
    for prev, nxt in zip(aux, aux[1:]):
        if nxt.k != prev.k + 1:
            raise ValueError(f"not a unit k-step: {prev} -> {nxt}")
        if nxt.n == prev.n - prev.k:
            step_bits.append("1")
        elif nxt.n == prev.n + 1:
            step_bits.append("0")
        else:
            raise ValueError(f"not a rising or falling step: {prev} -> {nxt}")
    return PathCode("".join(reversed(step_bits)) + "1" + "0" * (k0 - 2))


def to_strict_partition(code: "PathCode | str") -> tuple[int, ...]:
    """1-bit indices as parts: a strict partition with parts >= 2."""
    c = as_code(code)
    if c.weight == 0:
        raise InvalidCode(f"no parts in all-zero code {c.bits!r}")
    return c.one_indices()


def from_strict_partition(parts) -> PathCode:
    """Leading-1 code whose 1-bits sit at the given distinct parts >= 2."""
    t = validate_partition(parts, strict=True)
    if not t:
        raise InvalidPartition("empty partition has no code")
    if t[-1] < 2:
        raise InvalidPartition(f"parts must be >= 2, got {t!r}")
    return _code_of_parts(t)


def _code_of_parts(parts: tuple[int, ...]) -> PathCode:
    # parts: nonempty, strictly descending, all >= 2
    top = parts[0]
    word = bytearray(b"0" * (top - 1))
    for part in parts:
        word[top - part] = 49  # ord("1")
    return PathCode(word.decode())


def enumerate_Bj(j: int) -> tuple[PathCode, ...]:
    """All leading-1 codes with valuation j, via strict partitions of j with
    parts >= 2, in the oracle's descending-lexicographic order."""
    if j < 0:
        raise ValueError(f"valuation must be nonnegative, got {j}")
    return tuple(
        _code_of_parts(parts) for parts in enumerate_strict(j) if parts and parts[-1] >= 2
    )


def involution(j: int, code: "PathCode | str") -> PathCode:
    """The pairing on B_j + B_{j-1}; returns the partner, or the code itself
    at a fixed point.

    Rule one maps 10x in B_j to 1x in B_{j-1} and back. Rule two, within
    B_j, maps 1^{k+2} 0 x 0^{k+1} to 1^{k+2} x 1 0^k and back, for k >= 0.
    At most one rule can fire on any code; that exclusivity is re-checked at
    run time. Codes outside B_j + B_{j-1} raise NotInDomain.
    """
    c = as_code(code)
    v = valuation(c)
    if not c.bits or c.bits[0] != "1" or v not in (j, j - 1):
        raise NotInDomain(f"{c.bits!r} (valuation {v}) outside B_{j} + B_{j - 1}")
    w = c.bits
    matches: list[tuple[str, str]] = []

    if v == j and w.startswith("10"):
        matches.append(("rule1-forward", "1" + w[2:]))
    if v == j - 1:
        matches.append(("rule1-backward", "10" + w[1:]))
    if v == j:
        ones = len(w) - len(w.lstrip("1"))
        zeros = len(w) - len(w.rstrip("0"))
        if ones >= 2 and zeros >= ones - 1 and len(w) >= 2 * ones:
            x = w[ones + 1 : len(w) - (ones - 1)]
            matches.append(("rule2-forward", "1" * ones + x + "1" + "0" * (ones - 2)))
        if ones >= zeros + 2 and len(w) >= 2 * zeros + 3:
            x = w[zeros + 2 : len(w) - zeros - 1]
            matches.append(
                ("rule2-backward", "1" * (zeros + 2) + "0" + x + "0" * (zeros + 1))
            )

    if len(matches) > 1:
        labels = ", ".join(label for label, _ in matches)
        raise PartlabError(f"involution rules overlap on {w!r}: {labels}")
    if not matches:
        return c
    return PathCode(matches[0][1])


def split_valuation(prefix: "PathCode | str", suffix: "PathCode | str") -> int:
    """Valuation of the concatenation prefix + suffix without concatenating:
    v(suffix) + v(prefix) + weight(prefix) * length(suffix)."""
    p, s = as_code(prefix), as_code(suffix)
    return valuation(s) + valuation(p) + p.weight * s.length


def pentagonal_codes(count: int) -> tuple[PathCode, ...]:
    """First codes of the language (100)* (1 + 011), ordered by length.

    Their valuations enumerate the generalized pentagonal numbers from 2 up,
    each exactly once; they are the valuations at which the involution has
    fixed points.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    out: list[PathCode] = []
    m = 0
    while len(out) < count:
        out.append(PathCode("100" * m + "1"))
        if len(out) < count:
            out.append(PathCode("100" * m + "011"))
        m += 1
    return tuple(out)
