"""Self-checking suites that cross-verify the package against itself.

Each suite returns a flat list of named checks; ``run`` collects them into a
report. Suites re-derive everything they compare (no frozen tables here), so
they stay honest under refactoring. Default caps in VerifyConfig are sized
for an interactive run of a few seconds; the acceptance tests run these
suites at their larger ``ACCEPTANCE`` bounds.

Each check is one ``all()`` over a generator of its cases, or one comparison
where there is a single case; no check keeps a flag that a loop clears. A
case that needs several conditions gets a predicate named for its fact, such
as ``_bounds_match_replay``.

VerifyConfig, Check and VerifyReport are NamedTuples, so loading this module
never loads dataclasses (and inspect with it); each equals the plain tuple of
its fields, and a config with other bounds is made with VerifyConfig._replace.
"""

from __future__ import annotations

import random
from itertools import accumulate, count, islice
from typing import NamedTuple

from .coefficients import (
    c_from_product,
    c_from_recurrence,
    e_from_recurrence,
    euler_e,
    euler_product,
    euler_seq,
    f_equals_e_predicate,
    integrated_f,
    pentagonal_index,
)
from .codes import (
    Classification,
    code_of_path,
    decode_path,
    enumerate_Bj,
    involution,
    lemma51,
    pentagonal_codes,
    polarity,
    split_valuation,
    valuation,
)
from .dag import build_dag, enumerate_terminating_paths, extract_from_dag
from .engines import EngineKind, make_engine
from .oracle import p_oracle
from .rewrite import (
    BUILTIN_NAMES,
    Region,
    builtin_system,
    check_orthogonal,
    check_unitary,
    overlapping_minpart_rules,
)


class VerifyConfig(NamedTuple):
    """Sweep bounds for the suites; every field is an inclusive cap."""

    oracle_limit: int = 40
    engine_limit: int = 150
    series_limit: int = 200
    dag_limit: int = 16
    walk_limit: int = 18
    code_length_limit: int = 9
    involution_limit: int = 24
    region_bound: int = 24
    pair_samples: int = 200
    pair_length_limit: int = 12
    seed: int = 7


class Check(NamedTuple):
    suite: str
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        mark = "ok  " if self.passed else "FAIL"
        tail = f"  ({self.detail})" if self.detail else ""
        return f"{mark} {self.suite}:{self.name}{tail}"


class VerifyReport(NamedTuple):
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def lines(self) -> list[str]:
        passed = len(self.checks) - len(self.failures)
        tally = f"{passed}/{len(self.checks)} checks passed"
        return [c.line() for c in self.checks] + [tally]


def engines_suite(cfg: VerifyConfig) -> list[Check]:
    """Every counting engine against the exhaustive oracle and each other."""
    reference = make_engine(EngineKind.INTEGRAL)
    ok = all(reference.p(n) == p_oracle(n) for n in range(cfg.oracle_limit + 1))
    checks = [Check("engines", "integral-matches-exhaustive", ok, f"n<={cfg.oracle_limit}")]
    base = make_engine(EngineKind.EULER)
    base_vals = [base.p(n) for n in range(cfg.engine_limit + 1)]
    for kind in EngineKind:
        if kind is EngineKind.EULER:
            continue
        eng = make_engine(kind)
        ok = all(eng.p(n) == base_vals[n] for n in range(cfg.engine_limit + 1))
        checks.append(
            Check("engines", f"{kind}-matches-euler", ok, f"n<={cfg.engine_limit}")
        )
    return checks


def claim_suite(cfg: VerifyConfig) -> list[Check]:
    """The coefficient quadrangle: product, integrated, and both divisor
    recurrences all describe the same two series, and the closed-form
    membership predicate marks exactly the indices where they agree. The
    full product is -e termwise, so its negated prefix sums are the truncated
    product too."""
    lim = cfg.series_limit
    e = euler_seq(lim)
    f = integrated_f(lim)
    c = c_from_product(lim)
    prod = euler_product(lim)
    return [
        Check(
            "claim",
            "integrated-is-prefix-sum",
            all(f[n] == sum(e[i] for i in range(n + 1)) for n in range(lim + 1)),
            f"n<={lim}",
        ),
        Check(
            "claim",
            "truncated-product-equals-integrated",
            all(c[n] == f[n] for n in range(lim + 1))
            and all(prod[n] == -e[n] for n in range(lim + 1))
            and list(accumulate(-v for v in prod.values)) == list(c.values),
            f"n<={lim}",
        ),
        Check(
            "claim",
            "divisor-recurrence-rebuilds-truncated-product",
            c_from_recurrence(lim).values == c.values,
            f"n<={lim}",
        ),
        Check(
            "claim",
            "divisor-recurrence-rebuilds-pentagonal",
            e_from_recurrence(lim).values == e.values,
            f"n<={lim}",
        ),
        Check(
            "claim",
            "equality-predicate-marks-agreement",
            all((f[n] == e[n]) == f_equals_e_predicate(n) for n in range(lim + 1)),
            f"n<={lim}",
        ),
    ]


def _codes_of_length(length: int):
    """Every nonzero binary word of the given length."""
    for mask in range(1, 1 << length):
        yield format(mask, f"0{length}b")


_TERMINATING = (Classification.TERMINATING_BELOW, Classification.TERMINATING_AT)


def _bounds_match_replay(n_tilde: int, bits: str) -> bool:
    """lemma51's arithmetic termination bounds agree with replaying the walk.

    Walks that touch the wedge before their last vertex pass: they never
    arise as reduction paths, and the bounds do not apply to them.
    """
    cls = decode_path(n_tilde, bits).classification
    if cls is Classification.ENTERS_EARLY:
        return True
    rep = lemma51(n_tilde, bits)
    below = cls is Classification.TERMINATING_BELOW
    return (
        rep.terminating == (cls in _TERMINATING)
        and rep.at_boundary == (cls is Classification.TERMINATING_AT)
        and rep.strictly_below == below
        and (rep.leftmost_one or not below)
    )


def _path_code_terminates(n_tilde: int, path) -> bool:
    """The code of a reduction path decodes to a terminating walk that ends
    at the path's terminal index, satisfies the bounds, and carries the
    path's sign as its polarity."""
    code = code_of_path(path)
    walked = decode_path(n_tilde, code)
    final_n, final_k = walked.walk[-1]
    return (
        walked.classification in _TERMINATING
        and lemma51(n_tilde, code).terminating
        and path.j == n_tilde - (final_n - final_k)
        and path.sign == polarity(code)
    )


def _word_pair(rng: random.Random, limit: int) -> tuple[str, ...]:
    """Two random binary words, each of a random length up to limit."""
    lengths = rng.randint(0, limit), rng.randint(0, limit)
    return tuple("".join(rng.choice("01") for _ in range(n)) for n in lengths)


def lemmas_suite(cfg: VerifyConfig) -> list[Check]:
    walks = range(2, cfg.walk_limit + 1)
    maxpart = builtin_system("maxpart")
    # The (100)*(1+011) language: valuations are exactly the generalized
    # pentagonal numbers >= 2 in length order, one code each, and each code's
    # polarity is the pentagonal coefficient at its valuation.
    pents = pentagonal_codes(12)
    first_pentagonal = list(islice((v for v in count(2) if euler_e(v)), 12))
    rng = random.Random(cfg.seed)
    pairs = (_word_pair(rng, cfg.pair_length_limit) for _ in range(cfg.pair_samples))
    return [
        Check(
            "lemmas",
            "termination-bounds-match-replay",
            all(
                _bounds_match_replay(n_tilde, bits)
                for n_tilde in walks
                for length in range(1, cfg.code_length_limit + 1)
                for bits in _codes_of_length(length)
            ),
            f"l<={cfg.code_length_limit}, n~<={cfg.walk_limit}",
        ),
        Check(
            "lemmas",
            "reduction-path-codes-terminate",
            all(
                _path_code_terminates(n_tilde, path)
                for n_tilde in walks
                for path in enumerate_terminating_paths(maxpart, n_tilde)
                if path.j is not None
            ),
            f"n~<={cfg.walk_limit}",
        ),
        Check(
            "lemmas",
            "pentagonal-language-valuations",
            [valuation(c) for c in pents] == first_pentagonal
            and all(polarity(c) == euler_e(valuation(c)) for c in pents),
            "12 codes",
        ),
        # Valuation of a concatenation from the two halves alone.
        Check(
            "lemmas",
            "concatenation-valuation-additive",
            all(valuation(p + s) == split_valuation(p, s) for p, s in pairs),
            f"{cfg.pair_samples} samples",
        ),
    ]


_INVOLUTION_CHECKS = (
    "images-stay-in-domain",
    "self-inverse",
    "rule-sign-bookkeeping",
    "fixed-points-pentagonal",
    "signed-sums-telescope",
)


def _pairing_at(j: int, c) -> tuple[bool, bool, bool, bool]:
    """For one code of B_j + B_{j-1}: whether its image stays in the domain,
    whether the image maps back to it, whether the pair's signs follow the
    rule that paired them (rule one changes the valuation and keeps the sign,
    rule two keeps the valuation and flips it), and whether it is fixed."""
    image = involution(j, c)
    v_c, v_i = valuation(c), valuation(image)
    return (
        image.bits[:1] == "1" and v_i in (j, j - 1),
        involution(j, image) == c,
        image == c or polarity(image) == (1 if v_i != v_c else -1) * polarity(c),
        image == c,
    )


def _involution_facts(j: int) -> tuple[bool, ...]:
    """Whether each of _INVOLUTION_CHECKS holds at valuation j.

    Each code's image is built once, and only one j's codes are held at a
    time, so memory stays bounded by the largest j rather than by the sweep.
    """
    b_here = enumerate_Bj(j)
    b_prev = enumerate_Bj(j - 1)
    codes = b_here + b_prev
    rows = [_pairing_at(j, c) for c in codes]
    fixed = [c for c, row in zip(codes, rows) if row[3]]
    # Every valuation-(j-1) code is paired by rule one, so fixed points
    # sit at valuation j only: exactly one when j = k(3k-1)/2, the run
    # 1^k 0^(k-2) for k > 0 and 1^|k| 0^(|k|-1) for k < 0, carrying the
    # pentagonal coefficient as sign.
    k = pentagonal_index(j)
    shape = [] if k is None else ["1" * abs(k) + "0" * (k - 2 if k > 0 else -k - 1)]
    return (
        all(row[0] for row in rows),
        all(row[1] for row in rows),
        all(row[2] for row in rows),
        [c.bits for c in fixed] == shape
        and all(valuation(c) == j and polarity(c) == euler_e(j) for c in fixed),
        sum(polarity(c) for c in b_here) - sum(polarity(c) for c in b_prev)
        == euler_e(j),
    )


def involution_suite(cfg: VerifyConfig) -> list[Check]:
    """The sign-cancelling pairing on codes of valuation j and j-1."""
    facts = [_involution_facts(j) for j in range(2, cfg.involution_limit + 1)]
    return [
        Check("involution", name, all(f[i] for f in facts), f"2<=j<={cfg.involution_limit}")
        for i, name in enumerate(_INVOLUTION_CHECKS)
    ]


def rewrite_suite(cfg: VerifyConfig) -> list[Check]:
    region = Region(n_max=cfg.region_bound, k_max=cfg.region_bound)
    systems = [builtin_system(name) for name in BUILTIN_NAMES]
    systems.append(builtin_system("maxpart", completion=True))
    checks = [
        Check(
            "rewrite",
            f"{system.name}-{prop}",
            hygiene(system, region).ok,
            f"bound {cfg.region_bound}",
        )
        for system in systems
        for prop, hygiene in (("unitary", check_unitary), ("orthogonal", check_orthogonal))
    ]
    # Every overlap of the naive variant is between its two rules. The first
    # overlap is A(3, 2), since one needs 2 <= k < n, so the region scanned
    # has bound at least 3.
    naive_bound = max(cfg.region_bound, 3)
    o = check_orthogonal(
        overlapping_minpart_rules(), Region(n_max=naive_bound, k_max=naive_bound)
    )
    flagged = not o.ok and all(names == ("removal", "split") for _, names in o.overlaps)
    checks.append(
        Check(
            "rewrite",
            "overlapping-variant-flagged",
            flagged,
            f"{len(o.overlaps)} overlapping atoms",
        )
    )

    p = make_engine(EngineKind.EULER).p
    for name, constant, want, check in (
        ("maxpart", 1, integrated_f(cfg.dag_limit), "maxpart-extraction-integrated"),
        ("minpart", 0, euler_seq(cfg.dag_limit), "minpart-extraction-pentagonal"),
    ):
        extracted = (
            extract_from_dag(build_dag(builtin_system(name), n_tilde))
            for n_tilde in range(1, cfg.dag_limit + 1)
        )
        ok = all(
            got.constant == constant
            and all(got.coeffs[j] == want[j] for j in range(1, got.n_tilde + 1))
            and got.reconstruct(p) == p(got.n_tilde)
            for got in extracted
        )
        checks.append(Check("rewrite", check, ok, f"n~<={cfg.dag_limit}"))
    return checks


SUITES = {
    "engines": engines_suite,
    "claim": claim_suite,
    "lemmas": lemmas_suite,
    "involution": involution_suite,
    "rewrite": rewrite_suite,
}


def run(suite: str = "all", config: VerifyConfig | None = None) -> VerifyReport:
    """Run one suite (or all of them) and return the collected report."""
    cfg = config or VerifyConfig()
    if suite == "all":
        names = list(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}; pick from {', '.join(SUITES)}, all")
    checks: list[Check] = []
    for name in names:
        checks.extend(SUITES[name](cfg))
    return VerifyReport(tuple(checks))
