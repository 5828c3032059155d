"""Self-checking suites that cross-verify the package against itself.

Each suite returns a flat list of named checks; ``run`` collects them into a
report. Suites re-derive everything they compare (no frozen tables here), so
they stay honest under refactoring. Default caps in VerifyConfig are sized
for an interactive run of a few seconds; the acceptance tests run these
suites at their larger ``ACCEPTANCE`` bounds.

VerifyConfig, Check and VerifyReport are NamedTuples, so loading this module
never loads dataclasses (and inspect with it); each equals the plain tuple of
its fields, and a config with other bounds is made with VerifyConfig._replace.
"""

from __future__ import annotations

import random
from itertools import accumulate
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
        out = [c.line() for c in self.checks]
        n_fail = len(self.failures)
        out.append(f"{len(self.checks) - n_fail}/{len(self.checks)} checks passed")
        return out


def engines_suite(cfg: VerifyConfig) -> list[Check]:
    """Every counting engine against the exhaustive oracle and each other."""
    checks = []
    reference = make_engine(EngineKind.INTEGRAL)
    ok = all(reference.p(n) == p_oracle(n) for n in range(cfg.oracle_limit + 1))
    checks.append(
        Check("engines", "integral-matches-exhaustive", ok, f"n<={cfg.oracle_limit}")
    )
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
    checks = [
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
    return checks


def _codes_of_length(length: int):
    """Every nonzero binary word of the given length."""
    for mask in range(1, 1 << length):
        yield format(mask, f"0{length}b")


def lemmas_suite(cfg: VerifyConfig) -> list[Check]:
    checks = []

    # Arithmetic termination bounds vs walk replay, on every code short
    # enough, skipping walks that touch the wedge before their last vertex
    # (those never arise as reduction paths; the bounds do not apply).
    agree = True
    for n_tilde in range(2, cfg.walk_limit + 1):
        for length in range(1, cfg.code_length_limit + 1):
            for bits in _codes_of_length(length):
                cls = decode_path(n_tilde, bits).classification
                if cls is Classification.ENTERS_EARLY:
                    continue
                rep = lemma51(n_tilde, bits)
                want_term = cls in (
                    Classification.TERMINATING_BELOW,
                    Classification.TERMINATING_AT,
                )
                if rep.terminating != want_term:
                    agree = False
                if rep.at_boundary != (cls is Classification.TERMINATING_AT):
                    agree = False
                if rep.strictly_below != (cls is Classification.TERMINATING_BELOW):
                    agree = False
                if rep.strictly_below and not rep.leftmost_one:
                    agree = False
    checks.append(
        Check(
            "lemmas",
            "termination-bounds-match-replay",
            agree,
            f"l<={cfg.code_length_limit}, n~<={cfg.walk_limit}",
        )
    )

    # Codes extracted from real reduction paths decode to terminating walks
    # and satisfy the same bounds.
    maxpart = builtin_system("maxpart")
    paths_ok = True
    for n_tilde in range(2, cfg.walk_limit + 1):
        for path in enumerate_terminating_paths(maxpart, n_tilde):
            if path.j is None:
                continue
            code = code_of_path(path)
            walked = decode_path(n_tilde, code)
            if walked.classification not in (
                Classification.TERMINATING_BELOW,
                Classification.TERMINATING_AT,
            ):
                paths_ok = False
            if not lemma51(n_tilde, code).terminating:
                paths_ok = False
            final_n, final_k = walked.walk[-1]
            if path.j != n_tilde - (final_n - final_k):
                paths_ok = False
            if path.sign != polarity(code):
                paths_ok = False
    checks.append(
        Check(
            "lemmas",
            "reduction-path-codes-terminate",
            paths_ok,
            f"n~<={cfg.walk_limit}",
        )
    )

    # The (100)*(1+011) language: valuations are exactly the generalized
    # pentagonal numbers >= 2 in length order, one code each, and each code's
    # polarity is the pentagonal coefficient at its valuation.
    pents = pentagonal_codes(12)
    vals = [valuation(c) for c in pents]
    expected = [v for v in range(2, max(vals) + 1) if euler_e(v) != 0]
    lang_ok = (
        vals == sorted(vals)
        and len(set(vals)) == len(vals)
        and sorted(vals) == expected
        and all(polarity(c) == euler_e(valuation(c)) for c in pents)
    )
    checks.append(Check("lemmas", "pentagonal-language-valuations", lang_ok, "12 codes"))

    # Valuation of a concatenation from the two halves alone.
    rng = random.Random(cfg.seed)
    split_ok = True
    for _ in range(cfg.pair_samples):
        lp = rng.randint(0, cfg.pair_length_limit)
        ls = rng.randint(0, cfg.pair_length_limit)
        p = "".join(rng.choice("01") for _ in range(lp))
        s = "".join(rng.choice("01") for _ in range(ls))
        if valuation(p + s) != split_valuation(p, s):
            split_ok = False
    checks.append(
        Check(
            "lemmas",
            "concatenation-valuation-additive",
            split_ok,
            f"{cfg.pair_samples} samples",
        )
    )
    return checks


def involution_suite(cfg: VerifyConfig) -> list[Check]:
    """The sign-cancelling pairing on codes of valuation j and j-1."""
    in_domain = True
    self_inverse = True
    bookkeeping = True
    fixed_points = True
    telescoping = True
    for j in range(2, cfg.involution_limit + 1):
        b_here = enumerate_Bj(j)
        b_prev = enumerate_Bj(j - 1)
        fixed = []
        for c in b_here + b_prev:
            image = involution(j, c)
            v_c, v_i = valuation(c), valuation(image)
            if image.bits and image.bits[0] == "1" and v_i in (j, j - 1):
                pass
            else:
                in_domain = False
            if involution(j, image) != c:
                self_inverse = False
            if image == c:
                fixed.append(c)
            elif v_i != v_c:
                if polarity(image) != polarity(c):
                    bookkeeping = False
            else:
                if polarity(image) != -polarity(c):
                    bookkeeping = False
        # Every valuation-(j-1) code is paired by rule one, so fixed points
        # sit at valuation j only: exactly one when j = k(3k-1)/2, the run
        # 1^k 0^(k-2) for k > 0 and 1^|k| 0^(|k|-1) for k < 0, carrying the
        # pentagonal coefficient as sign.
        k = pentagonal_index(j)
        shape = [] if k is None else ["1" * abs(k) + "0" * (k - 2 if k > 0 else -k - 1)]
        if [c.bits for c in fixed] != shape or any(
            valuation(c) != j or polarity(c) != euler_e(j) for c in fixed
        ):
            fixed_points = False
        total = sum(polarity(c) for c in b_here) - sum(polarity(c) for c in b_prev)
        if total != euler_e(j):
            telescoping = False
    rng_detail = f"2<=j<={cfg.involution_limit}"
    return [
        Check("involution", "images-stay-in-domain", in_domain, rng_detail),
        Check("involution", "self-inverse", self_inverse, rng_detail),
        Check("involution", "rule-sign-bookkeeping", bookkeeping, rng_detail),
        Check("involution", "fixed-points-pentagonal", fixed_points, rng_detail),
        Check("involution", "signed-sums-telescope", telescoping, rng_detail),
    ]


def rewrite_suite(cfg: VerifyConfig) -> list[Check]:
    checks = []
    region = Region(n_max=cfg.region_bound, k_max=cfg.region_bound)
    systems = [builtin_system(name) for name in BUILTIN_NAMES]
    systems.append(builtin_system("maxpart", completion=True))
    for system in systems:
        u = check_unitary(system, region)
        o = check_orthogonal(system, region)
        checks.append(
            Check("rewrite", f"{system.name}-unitary", u.ok, f"bound {cfg.region_bound}")
        )
        checks.append(
            Check(
                "rewrite",
                f"{system.name}-orthogonal",
                o.ok,
                f"bound {cfg.region_bound}",
            )
        )
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

    euler = make_engine(EngineKind.EULER)
    for name, constant, want, check in (
        ("maxpart", 1, integrated_f(cfg.dag_limit), "maxpart-extraction-integrated"),
        ("minpart", 0, euler_seq(cfg.dag_limit), "minpart-extraction-pentagonal"),
    ):
        ok = True
        for n_tilde in range(1, cfg.dag_limit + 1):
            span = range(1, n_tilde + 1)
            got = extract_from_dag(build_dag(builtin_system(name), n_tilde))
            if got.constant != constant or any(got.coeffs[j] != want[j] for j in span):
                ok = False
            if got.reconstruct(euler.p) != euler.p(n_tilde):
                ok = False
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
