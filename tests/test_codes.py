"""Path codes: arithmetic, decoding, the partition view, and the pairing."""

import copy
import pickle

import pytest
from hypothesis import example, given, strategies as st

from partlab import (
    Classification,
    InvalidArgument,
    PathCode,
    builtin_system,
    code_of_path,
    decode_path,
    enumerate_Bj,
    enumerate_strict,
    enumerate_terminating_paths,
    euler_e,
    from_strict_partition,
    involution,
    lemma51,
    pentagonal_codes,
    polarity,
    s_oracle,
    split_valuation,
    to_strict_partition,
    valuation,
)

bits_strategy = st.text(alphabet="01", min_size=0, max_size=16)


def test_code_basics():
    code = PathCode("1011")
    assert code.length == 4 and code.weight == 3
    assert code.one_indices() == (5, 3, 2)
    assert code.rightmost_one == 2
    assert str(code) == "1011"
    with pytest.raises(InvalidArgument, match=r"^code must be over 0/1, got '10x1'$"):
        PathCode("10x1")


def test_path_code_contract():
    code = PathCode("1011")
    assert code == PathCode(bits="1011") and hash(code) == hash(PathCode("1011"))
    assert code != PathCode("101") and code != "1011" and code != ("1011",)
    assert repr(code) == "PathCode(bits='1011')"
    with pytest.raises(AttributeError):
        code.bits = "1"
    with pytest.raises(AttributeError):
        del code.bits
    assert copy.copy(code) == pickle.loads(pickle.dumps(code)) == code


def test_valuation_and_polarity():
    assert valuation("10100") == 10
    assert valuation("1011") == 10
    assert valuation("1000") == 5
    assert valuation("0011") == 5
    assert valuation("") == 0
    assert valuation("000") == 0
    assert polarity("10100") == -1
    assert polarity("1011") == 1
    assert polarity("1000") == 1
    assert polarity("0011") == -1
    with pytest.raises(InvalidArgument, match=r"^polarity undefined for all-zero code '000'$"):
        polarity("000")


def test_decode_worked_examples():
    walked = decode_path(10, "1011")
    assert walked.walk == ((10, 2), (8, 3), (9, 4), (5, 5))
    assert walked.classification is Classification.TERMINATING_BELOW

    walked = decode_path(10, "10100")
    assert walked.walk == ((10, 4), (11, 5), (6, 6))
    assert walked.classification is Classification.TERMINATING_BELOW

    for bits in ("1000", "0011"):
        assert decode_path(10, bits).classification is Classification.TERMINATING_AT
        # one index higher the same walks fall short of the wedge forever
        assert decode_path(11, bits).classification is Classification.NONTERMINATING


def test_decode_early_entry():
    # touches the wedge at its second vertex but keeps walking
    walked = decode_path(5, "011")
    assert walked.walk == ((5, 2), (3, 3), (4, 4))
    assert walked.classification is Classification.ENTERS_EARLY
    # ... while the arithmetic bounds alone would call it terminating: the
    # bounds only speak about genuine reduction paths
    assert lemma51(5, "011").terminating


def test_decode_all_zero():
    with pytest.raises(InvalidArgument, match=r"^cannot decode all-zero code '000'$"):
        decode_path(5, "000")
    assert decode_path(10, "1011").classification is Classification.TERMINATING_BELOW


def test_lemma_predicates():
    rep = lemma51(10, "1011")
    assert rep.terminating and rep.strictly_below
    assert not rep.at_boundary
    assert rep.leftmost_one

    rep = lemma51(10, "0011")
    assert rep.terminating and rep.at_boundary
    assert not rep.strictly_below and not rep.leftmost_one

    rep = lemma51(12, "1000")
    assert not rep.terminating


def test_walk_length_is_edge_count():
    # one step per bit left of the rightmost 1: l + 1 - k0 edges
    for bits in ("1", "1011", "10100", "110010"):
        code = PathCode(bits)
        edges = code.length + 1 - code.rightmost_one
        assert len(decode_path(20, code).walk) == edges + 1


def test_partition_bijection():
    assert to_strict_partition("1011") == (5, 3, 2)
    assert to_strict_partition("0011") == (3, 2)
    assert from_strict_partition((5, 3, 2)).bits == "1011"
    assert from_strict_partition((10,)).bits == "100000000"
    with pytest.raises(InvalidArgument, match=r"^parts must be >= 2, got \(5, 3, 1\)$"):
        from_strict_partition((5, 3, 1))
    with pytest.raises(InvalidArgument, match=r"^empty partition has no code$"):
        from_strict_partition(())
    with pytest.raises(InvalidArgument, match=r"^no parts in all-zero code '000'$"):
        to_strict_partition("000")


def test_from_strict_partition_checks_in_order():
    # positive ints, then strictly decreasing, then nonempty, then parts >= 2
    assert from_strict_partition([5, 3, 2]).bits == "1011"
    with pytest.raises(InvalidArgument, match=r"^parts must be positive ints, got \(0, 1\)$"):
        from_strict_partition([0, 1])
    for parts in ([1, 2], [3, 3]):
        with pytest.raises(InvalidArgument, match=rf"^not strictly decreasing: \({parts[0]}, "):
            from_strict_partition(parts)
    with pytest.raises(InvalidArgument, match=r"^empty partition has no code$"):
        from_strict_partition([])
    with pytest.raises(InvalidArgument, match=r"^parts must be >= 2, got \(2, 1\)$"):
        from_strict_partition([2, 1])


@given(st.sets(st.integers(min_value=2, max_value=24), min_size=1, max_size=8))
def test_partition_roundtrip(parts_set):
    parts = tuple(sorted(parts_set, reverse=True))
    code = from_strict_partition(parts)
    assert to_strict_partition(code) == parts
    assert valuation(code) == sum(parts)
    assert polarity(code) == (1 if len(parts) % 2 == 1 else -1)


@given(bits_strategy, bits_strategy)
def test_split_valuation(prefix, suffix):
    assert split_valuation(prefix, suffix) == valuation(prefix + suffix)


def test_enumerate_Bj_small():
    assert [c.bits for c in enumerate_Bj(2)] == ["1"]
    assert [c.bits for c in enumerate_Bj(5)] == ["1000", "11"]
    assert [c.bits for c in enumerate_Bj(7)] == ["100000", "1001", "110"]
    assert enumerate_Bj(0) == () and enumerate_Bj(1) == ()
    with pytest.raises(InvalidArgument):
        enumerate_Bj(-1)


def test_enumerate_Bj_matches_from_strict_partition():
    # enumerate_Bj builds its codes without from_strict_partition's checks;
    # one_indices reads each code back independently of how it was built
    for j in range(41):
        parts_list = [parts for parts in enumerate_strict(j) if parts and parts[-1] >= 2]
        codes = enumerate_Bj(j)
        assert list(codes) == [from_strict_partition(parts) for parts in parts_list]
        assert [(c.one_indices(), c.length + 1) for c in codes] == [
            (parts, parts[0]) for parts in parts_list
        ]


@given(st.text(alphabet="01", max_size=60))
@example("")
@example("0")
@example("0000000")
def test_valuation_is_sum_of_one_indices(bits):
    assert valuation(bits) == sum(PathCode(bits).one_indices())
    assert valuation(PathCode(bits)) == valuation(bits)


def test_enumerate_Bj_counts():
    # |B_j| = number of strict partitions of j avoiding part 1; adding or
    # removing a single 1 gives |B_j| + |B_{j-1}| = (strict count of j)
    for j in range(2, 26):
        no_ones = sum(1 for parts in enumerate_strict(j) if parts and parts[-1] >= 2)
        assert len(enumerate_Bj(j)) == no_ones
        assert no_ones + len(enumerate_Bj(j - 1)) == s_oracle(j)


def test_involution_rule_one():
    assert involution(5, "1000").bits == "100"
    assert involution(5, "100").bits == "1000"
    assert involution(10, "10100").bits == "1100"
    assert involution(10, "1100").bits == "10100"


def test_involution_rule_two():
    # same valuation, opposite polarity
    assert involution(18, "111000").bits == "11110"
    assert involution(18, "11110").bits == "111000"
    assert valuation("111000") == valuation("11110") == 18
    assert polarity("111000") == -polarity("11110")


def test_involution_fixed_points():
    assert involution(2, "1").bits == "1"
    assert involution(5, "11").bits == "11"
    assert involution(7, "110").bits == "110"
    assert involution(12, "1110").bits == "1110"
    assert involution(15, "11100").bits == "11100"


def test_involution_domain():
    # valuation 2, needs 4 or 5
    with pytest.raises(InvalidArgument, match=r"^'1' \(valuation 2\) outside B_5 \+ B_4$"):
        involution(5, "1")
    with pytest.raises(InvalidArgument, match=r"^'0100' \(valuation 4\) outside B_5 \+ B_4$"):
        involution(5, "0100")  # leading zero
    with pytest.raises(InvalidArgument, match=r"^'' \(valuation 0\) outside B_5 \+ B_4$"):
        involution(5, "")


@pytest.mark.parametrize("j", range(2, 26))
def test_involution_is_involution(j):
    for code in enumerate_Bj(j) + enumerate_Bj(j - 1):
        image = involution(j, code)
        assert involution(j, image) == code
        assert valuation(image) in (j - 1, j)
        if valuation(image) != valuation(code):
            assert polarity(image) == polarity(code)
        elif image != code:
            assert polarity(image) == -polarity(code)


@pytest.mark.parametrize("j", range(2, 31))
def test_signed_sums_telescope(j):
    here = sum(polarity(c) for c in enumerate_Bj(j))
    prev = sum(polarity(c) for c in enumerate_Bj(j - 1))
    assert here - prev == euler_e(j)


def test_pentagonal_codes():
    codes = pentagonal_codes(12)
    assert [c.bits for c in codes[:4]] == ["1", "011", "1001", "100011"]
    assert [valuation(c) for c in codes] == [2, 5, 7, 12, 15, 22, 26, 35, 40, 51, 57, 70]
    lengths = [c.length for c in codes]
    assert lengths == sorted(lengths)
    assert all(euler_e(valuation(c)) == polarity(c) for c in codes)
    # an odd count stops after the 1-ending code of the last length group
    assert pentagonal_codes(5) == codes[:5]
    assert pentagonal_codes(0) == ()
    with pytest.raises(InvalidArgument):
        pentagonal_codes(-1)


def test_code_of_path_roundtrip():
    system = builtin_system("maxpart")
    for n_tilde in (4, 7, 10, 13):
        for path in enumerate_terminating_paths(system, n_tilde):
            code = code_of_path(path)
            walked = decode_path(n_tilde, code)
            assert walked.classification in (
                Classification.TERMINATING_BELOW,
                Classification.TERMINATING_AT,
            )
            assert polarity(code) == path.sign
            # walk retraces exactly the auxiliary vertices of the path
            aux = [(v.n, v.k) for v in path.vertices[1:-1]]
            assert list(walked.walk) == aux


def test_code_of_path_ending_at_a_sink():
    # a path that ends at an auxiliary sink lists no terminal after its
    # auxiliary vertices, and is coded like the same vertices followed by one
    from partlab import TerminatingPath

    for path in enumerate_terminating_paths(builtin_system("maxpart"), 10):
        sunk = TerminatingPath(path.vertices[:-1], path.sign, None)
        assert code_of_path(sunk) == code_of_path(path)


def test_code_of_path_rejects_bare_paths():
    from partlab import Primary, TerminatingPath

    bare = TerminatingPath((Primary(2), Primary(0)), 1, 2)
    with pytest.raises(InvalidArgument):
        code_of_path(bare)


def test_code_of_path_rejects_uncodable_steps():
    from partlab import Auxiliary, Primary, TerminatingPath

    def path(*aux):
        return TerminatingPath((Primary(5), *aux, Primary(4)), 1, 1)

    with pytest.raises(ValueError, match=r"^startup column 1 below 2 cannot be coded$"):
        code_of_path(path(Auxiliary(5, 1)))
    # a minpart path lowers k, which no maxpart step does
    minpart = enumerate_terminating_paths(builtin_system("minpart"), 2)
    with pytest.raises(ValueError, match=r"^not a unit k-step: A\(2,2\) -> A\(1,1\)$"):
        code_of_path(next(p for p in minpart if p.j == 2))
    with pytest.raises(ValueError, match=r"^not a rising or falling step: A\(5,2\) -> A\(4,3\)$"):
        code_of_path(path(Auxiliary(5, 2), Auxiliary(4, 3)))


def test_lemma51_rejects_all_zero_code():
    with pytest.raises(InvalidArgument, match=r"^termination predicates undefined for '000'$"):
        lemma51(5, "000")


def test_negative_n_tilde_is_refused():
    # n~ = 0 is a startup point like any other; below it there is none
    assert decode_path(0, "1") == (((0, 2),), Classification.NONTERMINATING)
    assert lemma51(0, "1") == (False, False, False, True)
    with pytest.raises(InvalidArgument, match=r"^n_tilde must be nonnegative, got -1$"):
        decode_path(-1, "1")
    with pytest.raises(InvalidArgument, match=r"^n_tilde must be nonnegative, got -1$"):
        lemma51(-1, "1")
