"""Self-checking suites that cross-verify the package against itself.

Each suite returns a flat list of named checks; ``run_verify`` collects them
into a report. Suites re-derive everything they compare (no frozen tables
here), so they stay honest under refactoring. VerifyConfig's defaults are
sized for an interactive run of a few seconds, and ``plab verify --upto`` sets
every field; each is a size, checked by errors.nonnegative before any suite
runs. lemmas_suite reads its walk and code-length bounds from the module
constants WALK_LIMIT and CODE_LENGTH_LIMIT when it runs. No suite samples:
every case up to its bound is checked, so two runs give the same report and a
failure names a case that reproduces.

A check compares two whole sequences built by two routes, such as an engine's
sweep against the oracle's counts, so a bound that shrinks on one side makes
the lengths differ and the check fail. Only facts asked of each case on its
own (a code, a reduction path, a pair of words or a valuation j) stay as one
``all()`` over a generator of the cases; a case that needs several conditions
gets a predicate named for its fact, such as ``_bounds_match_replay``. No
check keeps a flag that a loop clears.

VerifyConfig, Check and VerifyReport are NamedTuples, so loading this module
never loads dataclasses (and inspect with it); each equals the plain tuple of
its fields, and a config with other bounds is made with VerifyConfig._replace.

Loading this module loads no layer it checks. Each suite and helper reaches a
layer as an attribute of the package, such as ``partlab.codes``, which imports
it on first access (PEP 562), so ``verify claim`` loads the coefficient layer
alone. That is two attribute reads, where an import statement in a function
costs about a microsecond per call, so the helpers run once per case use it
too. A test that replaces a function in the layer that defines it is seen here.
"""

from __future__ import annotations

from itertools import accumulate, count, islice, product
from operator import eq
from typing import TYPE_CHECKING, NamedTuple

import partlab
from partlab.errors import InvalidArgument, nonnegative

if TYPE_CHECKING:
    from .engines import EngineKind


WALK_LIMIT = 18
CODE_LENGTH_LIMIT = 9


class VerifyConfig(NamedTuple):
    """Sweep bounds for the suites; every field is an inclusive cap and a
    size, so run_verify refuses a negative one or one that is no int. plab
    verify --upto sets every field."""

    oracle_limit: int = 40
    engine_limit: int = 150
    series_limit: int = 200
    dag_limit: int = 16
    involution_limit: int = 24
    region_bound: int = 24


class Check(NamedTuple):
    suite: str
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        mark = "ok  " if self.passed else "FAIL"
        return f"{mark} {self.suite}:{self.name}  ({self.detail})"


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


def _sweep(kind: EngineKind, limit: int) -> list[int]:
    """p(0..limit) from a fresh engine of the given kind."""
    p = partlab.engines.make_engine(kind).p
    return [p(n) for n in range(limit + 1)]


def engines_suite(cfg: VerifyConfig) -> list[Check]:
    """Every counting engine against the exhaustive oracle and each other."""
    EngineKind = partlab.engines.EngineKind
    p_oracle = partlab.oracle.p_oracle
    exhaustive = [p_oracle(n) for n in range(cfg.oracle_limit + 1)]
    ok = _sweep(EngineKind.INTEGRAL, cfg.oracle_limit) == exhaustive
    checks = [Check("engines", "integral-matches-exhaustive", ok, f"n<={cfg.oracle_limit}")]
    lim = cfg.engine_limit
    euler = _sweep(EngineKind.EULER, lim)
    for kind in EngineKind:
        if kind is not EngineKind.EULER:
            ok = _sweep(kind, lim) == euler
            checks.append(Check("engines", f"{kind}-matches-euler", ok, f"n<={lim}"))
    return checks


def claim_suite(cfg: VerifyConfig) -> list[Check]:
    """The coefficient quadrangle: product, integrated, and both divisor
    recurrences all describe the same two series, and the closed-form
    membership predicate marks exactly the indices where they agree. The
    full product is -e termwise, so by the first fact its negated prefix
    sums are the truncated product too."""
    coefficients = partlab.coefficients
    lim = cfg.series_limit
    e = coefficients.euler_seq(lim).values
    f = coefficients.integrated_f(lim).values
    c = coefficients.c_from_product(lim).values
    facts = {
        "integrated-is-prefix-sum": list(accumulate(e)) == list(f),
        "truncated-product-equals-integrated": c == f
        and coefficients.euler_product(lim).values == tuple(-v for v in e),
        "divisor-recurrence-rebuilds-truncated-product":
        coefficients.c_from_recurrence(lim).values == c,
        "divisor-recurrence-rebuilds-pentagonal":
        coefficients.e_from_recurrence(lim).values == e,
        "equality-predicate-marks-agreement": list(map(eq, f, e))
        == list(map(coefficients.f_equals_e_predicate, range(lim + 1))),
    }
    return [Check("claim", name, ok, f"n<={lim}") for name, ok in facts.items()]


def _bounds_match_replay(n_tilde: int, bits: str) -> bool:
    """lemma51's arithmetic termination bounds agree with replaying the walk.

    Walks that touch the wedge before their last vertex pass: they never
    arise as reduction paths, and the bounds do not apply to them.
    """
    codes = partlab.codes
    cls = codes.decode_path(n_tilde, bits).classification
    kinds = codes.Classification
    if cls is kinds.ENTERS_EARLY:
        return True
    rep = codes.lemma51(n_tilde, bits)
    below = cls is kinds.TERMINATING_BELOW
    at = cls is kinds.TERMINATING_AT
    return (
        rep.terminating == (below or at)
        and rep.at_boundary == at
        and rep.strictly_below == below
        and (rep.leftmost_one or not below)
    )


def _path_code_terminates(n_tilde: int, path) -> bool:
    """The code of a reduction path decodes to a terminating walk that ends
    at the path's terminal index, satisfies the bounds, and carries the
    path's sign as its polarity."""
    codes = partlab.codes
    code = codes.code_of_path(path)
    walked = codes.decode_path(n_tilde, code)
    final_n, final_k = walked.walk[-1]
    kinds = codes.Classification
    return (
        walked.classification in (kinds.TERMINATING_BELOW, kinds.TERMINATING_AT)
        and codes.lemma51(n_tilde, code).terminating
        and path.j == n_tilde - (final_n - final_k)
        and path.sign == codes.polarity(code)
    )


def _words_upto(length: int) -> list[str]:
    """Every binary word of at most length bits, the empty word first."""
    return ["".join(w) for n in range(length + 1) for w in product("01", repeat=n)]


def lemmas_suite(cfg: VerifyConfig) -> list[Check]:
    codes, euler_e = partlab.codes, partlab.coefficients.euler_e
    walks = range(2, WALK_LIMIT + 1)
    nonzero = [bits for bits in _words_upto(CODE_LENGTH_LIMIT) if "1" in bits]
    maxpart = partlab.rewrite.builtin_system("maxpart")
    # The (100)*(1+011) language: valuations are exactly the generalized
    # pentagonal numbers >= 2 in length order, one code each, and each code's
    # polarity is the pentagonal coefficient at its valuation.
    pents = codes.pentagonal_codes(12)
    first_pentagonal = list(islice((v for v in count(2) if euler_e(v)), 12))
    # Each half has at most CODE_LENGTH_LIMIT // 2 bits, so no concatenation
    # is longer than the longest code the termination check reads.
    half = CODE_LENGTH_LIMIT // 2
    words = _words_upto(half)
    return [
        Check(
            "lemmas",
            "termination-bounds-match-replay",
            all(
                _bounds_match_replay(n_tilde, bits)
                for n_tilde in walks
                for bits in nonzero
            ),
            f"l<={CODE_LENGTH_LIMIT}, n~<={WALK_LIMIT}",
        ),
        Check(
            "lemmas",
            "reduction-path-codes-terminate",
            all(
                _path_code_terminates(n_tilde, path)
                for n_tilde in walks
                for path in partlab.dag.enumerate_terminating_paths(maxpart, n_tilde)
                if path.j is not None
            ),
            f"n~<={WALK_LIMIT}",
        ),
        Check(
            "lemmas",
            "pentagonal-language-valuations",
            list(map(codes.valuation, pents)) == first_pentagonal
            and list(map(codes.polarity, pents)) == list(map(euler_e, first_pentagonal)),
            "12 codes",
        ),
        # Valuation of a concatenation from the two halves alone.
        Check(
            "lemmas",
            "concatenation-valuation-additive",
            all(
                codes.valuation(p + s) == codes.split_valuation(p, s)
                for p in words
                for s in words
            ),
            f"p, s of l<={half}",
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
    rule two keeps the valuation and flips it), and whether it is fixed.
    The middle two are not asked of an image outside the domain, where the
    involution and polarity are undefined."""
    codes = partlab.codes
    image = codes.involution(j, c)
    v_i = codes.valuation(image)
    if image.bits[:1] != "1" or v_i not in (j, j - 1):
        return False, True, True, False
    sign = 1 if v_i != codes.valuation(c) else -1
    return (
        True,
        codes.involution(j, image) == c,
        image == c or codes.polarity(image) == sign * codes.polarity(c),
        image == c,
    )


def _involution_facts(j: int) -> tuple[bool, ...]:
    """Whether each of _INVOLUTION_CHECKS holds at valuation j.

    Each code's image is built once, and only one j's codes are held at a
    time, so memory stays bounded by the largest j rather than by the sweep.
    """
    valuation, polarity = partlab.codes.valuation, partlab.codes.polarity
    euler_e = partlab.coefficients.euler_e
    b_here = partlab.codes.enumerate_Bj(j)
    b_prev = partlab.codes.enumerate_Bj(j - 1)
    codes = b_here + b_prev
    rows = [_pairing_at(j, c) for c in codes]
    fixed = [c for c, row in zip(codes, rows) if row[3]]
    # Every valuation-(j-1) code is paired by rule one, so fixed points
    # sit at valuation j only: exactly one when j = k(3k-1)/2, the run
    # 1^k 0^(k-2) for k > 0 and 1^|k| 0^(|k|-1) for k < 0, carrying the
    # pentagonal coefficient as sign.
    k = partlab.coefficients.pentagonal_index(j)
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
    rewrite, dag, coefficients = partlab.rewrite, partlab.dag, partlab.coefficients
    builtin_system = rewrite.builtin_system
    region = rewrite.Region(n_max=cfg.region_bound, k_max=cfg.region_bound)
    systems = [builtin_system(name) for name in rewrite.BUILTIN_NAMES]
    systems.append(builtin_system("maxpart", completion=True))
    checks = [
        Check(
            "rewrite",
            f"{system.name}-{prop}",
            hygiene(system, region).ok,
            f"bound {cfg.region_bound}",
        )
        for system in systems
        for prop, hygiene in (
            ("unitary", rewrite.check_unitary),
            ("orthogonal", rewrite.check_orthogonal),
        )
    ]
    # Every overlap of the naive variant is between its two rules. The first
    # overlap is A(3, 2), since one needs 2 <= k < n, so the region scanned
    # has bound at least 3.
    naive_bound = max(cfg.region_bound, 3)
    o = rewrite.check_orthogonal(
        rewrite.overlapping_minpart_rules(), rewrite.Region(n_max=naive_bound, k_max=naive_bound)
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

    engines = partlab.engines
    p = engines.make_engine(engines.EngineKind.EULER).p
    for name, constant, want, check in (
        ("maxpart", 1, coefficients.integrated_f(cfg.dag_limit), "maxpart-extraction-integrated"),
        ("minpart", 0, coefficients.euler_seq(cfg.dag_limit), "minpart-extraction-pentagonal"),
    ):
        extracted = (
            dag.extract_from_dag(dag.build_dag(builtin_system(name), n_tilde))
            for n_tilde in range(1, cfg.dag_limit + 1)
        )
        ok = all(
            got.constant == constant
            and tuple(got.coeffs.values()) == want.values[1 : got.n_tilde + 1]
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


def run_verify(suite: str = "all", config: VerifyConfig | None = None) -> VerifyReport:
    """Run one suite (or all of them) and return the collected report."""
    cfg = config or VerifyConfig()
    for field, value in zip(cfg._fields, cfg):
        nonnegative(field, value)
    if suite == "all":
        names = list(SUITES)
    elif isinstance(suite, str) and suite in SUITES:
        names = [suite]
    else:
        raise InvalidArgument(f"unknown suite {suite!r}; pick from {', '.join(SUITES)}, all")
    checks: list[Check] = []
    for name in names:
        checks.extend(SUITES[name](cfg))
    return VerifyReport(tuple(checks))
