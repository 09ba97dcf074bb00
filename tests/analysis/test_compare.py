"""Unit tests for comparison reports and shape checks."""

import pytest

from repro.analysis.compare import ComparisonReport, shape_checks
from repro.experiments.results import ExperimentResult


def fake_result(protocol, hit, lookup, transfer, curve, lookup_cdf, transfer_cdf,
                population=240):
    return ExperimentResult(
        protocol=protocol,
        seed=1,
        population=population,
        duration_hours=12.0,
        queries=1000,
        hit_ratio=hit,
        mean_lookup_latency_ms=lookup,
        mean_transfer_ms=transfer,
        outcome_counts={},
        hit_ratio_curve=curve,
        lookup_cdf=lookup_cdf,
        transfer_cdf=transfer_cdf,
    )


def paperlike_pair():
    flower = fake_result(
        "flower", 0.68, 152.0, 92.0,
        curve=[(1, 0.1), (6, 0.4), (12, 0.55), (24, 0.68)],
        lookup_cdf=[(100.0, 0.5), (150.0, 0.66), (2000.0, 1.0)],
        transfer_cdf=[(50.0, 0.4), (100.0, 0.62), (400.0, 1.0)],
    )
    squirrel = fake_result(
        "squirrel", 0.41, 1544.0, 166.0,
        curve=[(1, 0.2), (6, 0.38), (12, 0.40), (24, 0.41)],
        lookup_cdf=[(150.0, 0.05), (1200.0, 0.25), (4000.0, 1.0)],
        transfer_cdf=[(100.0, 0.22), (400.0, 1.0)],
    )
    return flower, squirrel


def test_all_paper_claims_pass_on_paper_numbers():
    flower, squirrel = paperlike_pair()
    checks = shape_checks(flower, squirrel)
    assert len(checks) == 7
    assert all(check.passed for check in checks), [
        (c.name, c.detail) for c in checks if not c.passed
    ]


def test_failed_claim_detected():
    flower, squirrel = paperlike_pair()
    weak_flower = fake_result(
        "flower", 0.30, 152.0, 92.0,  # loses on hit ratio
        curve=flower.hit_ratio_curve,
        lookup_cdf=flower.lookup_cdf,
        transfer_cdf=flower.transfer_cdf,
    )
    report = ComparisonReport(weak_flower, squirrel)
    assert not report.all_passed
    assert any(
        c.name == "fig3_flower_wins_finally" and not c.passed for c in report.checks
    )


def test_report_renders_tables():
    flower, squirrel = paperlike_pair()
    report = ComparisonReport(flower, squirrel)
    text = report.render()
    assert "hit ratio" in text
    assert "paper shape checks" in text
    assert "PASS" in text
    assert "10.2x" in text or "10.1x" in text  # 1544/152 lookup factor


def test_population_mismatch_rejected():
    flower, squirrel = paperlike_pair()
    other = fake_result(
        "squirrel", 0.41, 1544.0, 166.0,
        curve=squirrel.hit_ratio_curve,
        lookup_cdf=squirrel.lookup_cdf,
        transfer_cdf=squirrel.transfer_cdf,
        population=999,
    )
    with pytest.raises(ValueError):
        ComparisonReport(flower, other)


def test_check_details_contain_measurements():
    flower, squirrel = paperlike_pair()
    for check in shape_checks(flower, squirrel):
        assert check.detail
        assert check.claim
