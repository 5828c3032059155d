"""The self-check suites and their report plumbing."""

import pytest

from partlab import codes, coefficients, dag, rewrite, verify
from partlab import (
    Check,
    CoeffSeq,
    InvalidArgument,
    PathCode,
    RewriteSystem,
    SUITES,
    VerifyConfig,
    VerifyReport,
    run_verify,
)

SMALL = VerifyConfig(
    oracle_limit=20,
    engine_limit=60,
    series_limit=80,
    dag_limit=10,
    involution_limit=12,
    region_bound=12,
)
# the lemma bounds every test here runs at
WALK, CODE_LENGTH = 10, 6


@pytest.fixture(autouse=True)
def small_lemma_bounds(monkeypatch):
    monkeypatch.setattr(verify, "WALK_LIMIT", WALK)
    monkeypatch.setattr(verify, "CODE_LENGTH_LIMIT", CODE_LENGTH)


def test_all_suites_pass(monkeypatch):
    monkeypatch.undo()  # the module's own lemma bounds
    report = run_verify("all")
    assert report.ok, [c.line() for c in report.failures]
    assert report.lines()[-1] == "31/31 checks passed"
    suites = {c.suite for c in report.checks}
    assert suites == set(SUITES)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_single_suite(name):
    report = run_verify(name, SMALL)
    assert report.ok
    assert all(c.suite == name for c in report.checks)


def failing(suite: str) -> set[str]:
    return {c.name for c in run_verify(suite, SMALL).failures}


def test_termination_check_needs_leftmost_one(monkeypatch):
    real = codes.lemma51
    monkeypatch.setattr(
        codes,
        "lemma51",
        lambda n_tilde, code: real(n_tilde, code)._replace(leftmost_one=False),
    )
    assert failing("lemmas") == {"termination-bounds-match-replay"}


def test_fixed_point_check_needs_pentagonal_shape(monkeypatch):
    real = coefficients.pentagonal_index
    # euler_e reads pentagonal_index too; its values are kept, so that only the
    # fixed points' expected shape moves
    signs = {j: coefficients.euler_e(j) for j in range(SMALL.involution_limit + 1)}
    monkeypatch.setattr(
        coefficients, "pentagonal_index", lambda n: None if real(n) is None else real(n) + 1
    )
    monkeypatch.setattr(coefficients, "euler_e", signs.__getitem__)
    assert failing("involution") == {"fixed-points-pentagonal"}


def test_overlap_check_needs_both_rule_names(monkeypatch):
    real = rewrite.overlapping_minpart_rules

    def renamed():
        system = real()
        split = system.rules[1]._replace(name="two-term")
        return RewriteSystem(system.name, (system.rules[0], split))

    monkeypatch.setattr(rewrite, "overlapping_minpart_rules", renamed)
    assert failing("rewrite") == {"overlapping-variant-flagged"}


def test_product_check_needs_euler_product(monkeypatch):
    real = coefficients.euler_product

    def flipped(upto):
        values = list(real(upto).values)
        values[7] = -values[7]  # the pentagonal term at 7, nonzero
        return CoeffSeq("e", tuple(values))

    monkeypatch.setattr(coefficients, "euler_product", flipped)
    failures = run_verify("all", SMALL).failures
    assert [(c.suite, c.name) for c in failures] == [
        ("claim", "truncated-product-equals-integrated")
    ]


def _planted(label, suite, module, function, case, broken, at, names):
    return pytest.param(suite, module, function, case, broken, at, names, id=label)


def _domain(label, suite, module, function, case, broken, first, last, names):
    """Rows planting a fault at the first and the last case of a sweep, which
    fail the named checks, and one case past its end, which fails none."""
    return [
        _planted(f"{label}-{at}", suite, module, function, case, broken, at, want)
        for at, want in ((first, names), (last, names), (last + 1, set()))
    ]


def _no(_):
    return False


EXTRACTION = {"maxpart-extraction-integrated", "minpart-extraction-pentagonal"}
ADDITIVE = {"concatenation-valuation-additive"}

# Each row: the suite, the function patched in the module that defines it, the
# case a call of it covers, what the call returns there instead of its result,
# the case that gets the fault, and the checks that fail with it.
PLANTED = [
    *_domain("walk", "lemmas", verify, "_bounds_match_replay", lambda n, bits: n, _no,
             2, WALK, {"termination-bounds-match-replay"}),
    *_domain("path-walk", "lemmas", verify, "_path_code_terminates", lambda n, path: n, _no,
             2, WALK, {"reduction-path-codes-terminate"}),
    *_domain("code-length", "lemmas", verify, "_bounds_match_replay",
             lambda n, bits: len(bits), _no,
             1, CODE_LENGTH, {"termination-bounds-match-replay"}),
    # in the images-stay-in-domain column
    *_domain("involution-j", "involution", verify, "_pairing_at", lambda j, c: j,
             lambda row: (False, *row[1:]), 2, SMALL.involution_limit,
             {"images-stay-in-domain"}),
    *_domain("extraction", "rewrite", dag, "extract_from_dag", lambda dag: dag.n_tilde,
             lambda got: got._replace(constant=-1), 1, SMALL.dag_limit, EXTRACTION),
    # the longer word of a pair, from the two empty words to half the code bound
    *_domain("pair-length", "lemmas", codes, "split_valuation",
             lambda p, s: max(len(p), len(s)), lambda v: v + 1,
             0, CODE_LENGTH // 2, ADDITIVE),
    _planted("empty-prefix", "lemmas", codes, "split_valuation", lambda p, s: len(p),
             lambda v: v + 1, 0, ADDITIVE),
    _planted("empty-suffix", "lemmas", codes, "split_valuation", lambda p, s: len(s),
             lambda v: v + 1, 0, ADDITIVE),
    # 10001 in B_8 sent to 110, not to 1001: an image in the domain with the
    # same sign, which 110 does not map back from
    _planted("in-domain", "involution", codes, "involution", lambda j, c: (j, str(c)),
             lambda image: PathCode("110"), (8, "10001"), {"self-inverse"}),
    # 1011 sent to 01011, outside the domain, where nothing maps back to 1011
    # and 111 no longer round-trips through it
    _planted("outside-domain", "involution", codes, "involution", lambda j, c: str(c),
             lambda image: PathCode("01011"), "1011",
             {"images-stay-in-domain", "self-inverse"}),
]


@pytest.mark.parametrize("suite, module, function, case, broken, at, names", PLANTED)
def test_planted_fault_fails_its_check(
    monkeypatch, suite, module, function, case, broken, at, names
):
    real = getattr(module, function)

    def planted(*args):
        got = real(*args)
        return broken(got) if case(*args) == at else got

    monkeypatch.setattr(module, function, planted)
    assert failing(suite) == names


def test_unknown_suite():
    with pytest.raises(InvalidArgument):
        run_verify("everything")


def test_report_lines():
    report = VerifyReport(
        (
            Check("demo", "works", True, "n<=3"),
            Check("demo", "breaks", False, "n<=4"),
        )
    )
    assert not report.ok
    assert report.failures == (report.checks[1],)
    lines = report.lines()
    assert lines[0] == "ok   demo:works  (n<=3)"
    assert lines[1] == "FAIL demo:breaks  (n<=4)"
    assert lines[-1] == "1/2 checks passed"
