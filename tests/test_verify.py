"""The self-check suites and their report plumbing."""

import pytest

import partlab.verify
from partlab import (
    Check,
    CoeffSeq,
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
    walk_limit=10,
    code_length_limit=6,
    involution_limit=12,
    region_bound=12,
    pair_samples=40,
)


def test_all_suites_pass():
    report = run_verify("all")
    assert report.ok, [c.line() for c in report.failures]
    assert len(report.checks) > 20
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
    real = partlab.verify.lemma51
    monkeypatch.setattr(
        partlab.verify,
        "lemma51",
        lambda n_tilde, code: real(n_tilde, code)._replace(leftmost_one=False),
    )
    assert failing("lemmas") == {"termination-bounds-match-replay"}


def test_fixed_point_check_needs_pentagonal_shape(monkeypatch):
    real = partlab.verify.pentagonal_index
    monkeypatch.setattr(
        partlab.verify, "pentagonal_index", lambda n: None if real(n) is None else real(n) + 1
    )
    assert failing("involution") == {"fixed-points-pentagonal"}


def test_overlap_check_needs_both_rule_names(monkeypatch):
    real = partlab.verify.overlapping_minpart_rules

    def renamed():
        system = real()
        split = system.rules[1]._replace(name="two-term")
        return RewriteSystem(system.name, (system.rules[0], split))

    monkeypatch.setattr(partlab.verify, "overlapping_minpart_rules", renamed)
    assert failing("rewrite") == {"overlapping-variant-flagged"}


def test_product_check_needs_euler_product(monkeypatch):
    real = partlab.verify.euler_product

    def flipped(upto):
        values = list(real(upto).values)
        values[7] = -values[7]  # the pentagonal term at 7, nonzero
        return CoeffSeq("e", tuple(values))

    monkeypatch.setattr(partlab.verify, "euler_product", flipped)
    failures = run_verify("all", SMALL).failures
    assert [(c.suite, c.name) for c in failures] == [
        ("claim", "truncated-product-equals-integrated")
    ]


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_verify("everything")


def test_report_lines():
    report = VerifyReport(
        (
            Check("demo", "works", True, "n<=3"),
            Check("demo", "breaks", False),
        )
    )
    assert not report.ok
    assert report.failures == (report.checks[1],)
    lines = report.lines()
    assert lines[0] == "ok   demo:works  (n<=3)"
    assert lines[1] == "FAIL demo:breaks"
    assert lines[-1] == "1/2 checks passed"
