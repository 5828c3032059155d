"""End-to-end acceptance sweep.

Eleven numbered criteria, one test each, in order. Every test prints a
single PASS/FAIL line past the capture plugin, so a plain ``pytest -v`` run
shows the scorecard inline; the assert carries the same message.

Criteria 01-09 read named checks from the verify suites, each run once at
the ``ACCEPTANCE`` bounds: 01 and 02 from ``engines``, 03 from ``claim``, 04,
05 and 09 from ``rewrite``, 06 from ``involution``, 07 and 08 from
``lemmas``. What no suite checks is asserted here: the integral engine
against Euler's to 2000 (01), path-code completeness (07) and the signed
sums over B_j (08). Criteria 10 and 11 stand alone.
"""

import time
from itertools import product

import pytest

from partlab import (
    SUITES,
    Classification,
    VerifyConfig,
    builtin_system,
    code_of_path,
    decode_path,
    enumerate_Bj,
    enumerate_terminating_paths,
    integrated_f,
    make_engine,
    polarity,
    run_verify,
    valuation,
    verify,
)

ACCEPTANCE = VerifyConfig(
    oracle_limit=60, engine_limit=200, series_limit=200, dag_limit=30, involution_limit=40,
    region_bound=60,
)
# the lemmas suite's walk and code-length bounds, module constants of verify
WALK_LIMIT, CODE_LENGTH_LIMIT = 24, 12


def report(capsys, number: int, name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    tail = f"  ({detail})" if detail else ""
    with capsys.disabled():
        print(f"[{tag}] acceptance {number:02d} {name}{tail}")
    assert ok, f"acceptance {number:02d} {name}{tail}"


@pytest.fixture(scope="module")
def suites():
    """Each verify suite run once at ACCEPTANCE and the lemma bounds above:
    name -> (report, seconds)."""
    runs = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "WALK_LIMIT", WALK_LIMIT)
        patch.setattr(verify, "CODE_LENGTH_LIMIT", CODE_LENGTH_LIMIT)
        for name in SUITES:
            start = time.perf_counter()
            runs[name] = (run_verify(name, ACCEPTANCE), time.perf_counter() - start)
    return runs


def passed(suites, suite: str, *names: str, detail: str) -> bool:
    """Whether every named check of one suite passed with the given detail,
    which names the bound it ran at, so a check run at other bounds fails; an
    unreported name fails."""
    outcome = {c.name: c.passed and c.detail == detail for c in suites[suite][0].checks}
    return all(outcome.get(name, False) for name in names)


@pytest.fixture(scope="module")
def counted_to_2000():
    """Euler and integral engines filled to 2000 with cumulative counters
    recorded after each n."""
    euler = make_engine("euler")
    integral = make_engine("integral")
    euler_terms, integral_terms = [], []
    for n in range(2001):
        euler.p(n)
        euler_terms.append(euler.recurrent_terms)
        integral.p(n)
        integral_terms.append(integral.recurrent_terms)
    return euler, integral, euler_terms, integral_terms


def test_c01_exact_counts(capsys, suites, counted_to_2000):
    euler, integral, _, _ = counted_to_2000
    ok = passed(suites, "engines", "integral-matches-exhaustive", detail="n<=60")
    ok = ok and all(integral.p(n) == euler.p(n) for n in range(2001))
    report(capsys, 1, "exact-counts", ok, "enumeration to 60, cross-check to 2000")


def test_c02_engine_agreement(capsys, suites):
    kinds = ("integral", "sigma", "minpart", "bounded", "maxpart")
    ok = passed(suites, "engines", *(f"{kind}-matches-euler" for kind in kinds), detail="n<=200")
    report(capsys, 2, "engine-agreement", ok, "six engines, n<=200")


def test_c03_coefficient_routes(capsys, suites):
    ok = passed(
        suites, "claim", "integrated-is-prefix-sum", "truncated-product-equals-integrated",
        "divisor-recurrence-rebuilds-truncated-product", "divisor-recurrence-rebuilds-pentagonal",
        "equality-predicate-marks-agreement", detail="n<=200",
    )
    report(capsys, 3, "coefficient-routes", ok, "four routes + predicate, n<=200")


def test_c04_maxpart_reduction(capsys, suites):
    # coeffs[j] = f_j at every n~ means the coefficients are stable as n~ grows
    elapsed = suites["rewrite"][1]
    ok = passed(suites, "rewrite", "maxpart-extraction-integrated", detail="n~<=30")
    ok = ok and elapsed < 10.0
    detail = f"constant 1, integrated coefficients, stable, n~<=30, {elapsed:.2f}s"
    report(capsys, 4, "maxpart-reduction", ok, detail)


def test_c05_minpart_reduction(capsys, suites):
    ok = passed(suites, "rewrite", "minpart-extraction-pentagonal", detail="n~<=30")
    report(capsys, 5, "minpart-reduction", ok, "constant 0, pentagonal coefficients, n~<=30")


def test_c06_sign_pairing(capsys, suites):
    ok = passed(
        suites, "involution", "images-stay-in-domain", "self-inverse", "rule-sign-bookkeeping",
        "fixed-points-pentagonal", "signed-sums-telescope", detail="2<=j<=40",
    )
    report(capsys, 6, "sign-pairing", ok, "pairing properties + fixed-point shapes, 2<=j<=40")


def test_c07_termination_formula(capsys, suites):
    ok = passed(suites, "lemmas", "termination-bounds-match-replay", detail="l<=12, n~<=24")
    ok = ok and passed(suites, "lemmas", "reduction-path-codes-terminate", detail="n~<=24")
    # the codes of genuine reduction paths are exactly the terminating ones
    system = builtin_system("maxpart")
    terminating = (Classification.TERMINATING_BELOW, Classification.TERMINATING_AT)
    words = ("".join(w) for length in range(1, 11) for w in product("01", repeat=length))
    codes = [bits for bits in words if "1" in bits]
    for n_tilde in range(2, 17):
        paths = enumerate_terminating_paths(system, n_tilde)
        path_codes = {code_of_path(p).bits for p in paths if p.j is not None}
        terminating_codes = {
            bits for bits in codes if decode_path(n_tilde, bits).classification in terminating
        }
        ok = ok and {b for b in path_codes if len(b) <= 10} == terminating_codes
    detail = "bounds = replay on all codes l<=12, n~<=24; path codes complete to l<=10"
    report(capsys, 7, "termination-formula", ok, detail)


def test_c08_valuation_identities(capsys, suites):
    ok = passed(suites, "lemmas", "concatenation-valuation-additive", detail="p, s of l<=6")
    # signed sums over the valuation classes are the integrated coefficients
    f = integrated_f(40)
    ok = ok and all(sum(polarity(b) for b in enumerate_Bj(j)) == f[j] for j in range(2, 41))
    detail = "signed sums j<=40; every concatenation of words l<=6"
    report(capsys, 8, "valuation-identities", ok, detail)


def test_c09_rule_hygiene(capsys, suites):
    systems = ("minpart", "bounded", "maxpart", "maxpart-completed")
    hygiene = (f"{name}-{prop}" for name in systems for prop in ("unitary", "orthogonal"))
    ok = passed(suites, "rewrite", *hygiene, detail="bound 60")
    # every atom with 2 <= k < n <= 60
    overlaps = f"{58 * 59 // 2} overlapping atoms"
    ok = ok and passed(suites, "rewrite", "overlapping-variant-flagged", detail=overlaps)
    report(capsys, 9, "rule-hygiene", ok, "three systems clean at 60; overlap flagged")


def test_c10_worked_codes(capsys):
    quadruple = ("10100", "1011", "1000", "0011")
    ok = [valuation(b) for b in quadruple] == [10, 10, 5, 5]
    ok = ok and [polarity(b) for b in quadruple] == [-1, 1, 1, -1]
    ok = ok and [decode_path(10, b).classification for b in quadruple] == [
        Classification.TERMINATING_BELOW,
        Classification.TERMINATING_BELOW,
        Classification.TERMINATING_AT,
        Classification.TERMINATING_AT,
    ]
    ok = ok and all(
        decode_path(11, b).classification is Classification.NONTERMINATING
        for b in ("1000", "0011")
    )
    paths = enumerate_terminating_paths(builtin_system("maxpart"), 10)
    by_code = {code_of_path(p).bits: p for p in paths if p.j is not None}
    ok = ok and all(bits in by_code for bits in quadruple)
    ok = ok and by_code["10100"].j == 10 and by_code["10100"].sign == -1
    ok = ok and by_code["1011"].j == 10 and by_code["1011"].sign == 1
    ok = ok and by_code["1000"].j == 5 and by_code["0011"].j == 5
    report(capsys, 10, "worked-codes", ok, "valuations, signs, walks, path membership")


def test_c11_work_dominance(capsys, counted_to_2000):
    from partlab.cli import main

    _, _, euler_terms, integral_terms = counted_to_2000
    ok = all(euler_terms[n] < integral_terms[n] for n in range(20, 2001))
    # and the comparison is observable from the command line
    ok = ok and main(
        ["bench", "60", "--engine", "euler", "--engine", "integral", "--format", "csv"]
    ) == 0
    out = capsys.readouterr().out.splitlines()
    ok = ok and out[0] == "engine,n,terms,seconds" and len(out) == 3
    report(capsys, 11, "work-dominance", ok, "cumulative reads, every n in [20,2000]")
