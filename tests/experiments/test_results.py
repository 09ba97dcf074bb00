"""Unit tests for experiment result records."""

import json

from repro.experiments.results import ExperimentResult
from repro.metrics.collector import MetricsCollector


def filled_metrics():
    metrics = MetricsCollector()
    hour = 3_600_000.0

    def record(time, outcome, lookup=100.0, transfer=50.0):
        metrics.record(time, (0, 1), 0, outcome, lookup, transfer, hops=2)

    record(0.5 * hour, "miss_server", lookup=900.0)
    record(1.5 * hour, "hit_directory", lookup=120.0)
    record(2.5 * hour, "hit_summary", lookup=40.0, transfer=20.0)
    return metrics


def test_from_metrics_summary_fields():
    result = ExperimentResult.from_metrics(
        protocol="flower",
        seed=9,
        population=100,
        duration_hours=3.0,
        metrics=filled_metrics(),
    )
    assert result.queries == 3
    assert result.hit_ratio == 2 / 3
    assert result.mean_lookup_latency_ms == (900 + 120 + 40) / 3
    assert result.outcome_counts == {
        "miss_server": 1,
        "hit_directory": 1,
        "hit_summary": 1,
    }


def test_hit_ratio_curve_is_hourly_cumulative():
    result = ExperimentResult.from_metrics(
        protocol="flower",
        seed=9,
        population=100,
        duration_hours=3.0,
        metrics=filled_metrics(),
    )
    assert [h for h, __ in result.hit_ratio_curve] == [1.0, 2.0, 3.0]
    ratios = [r for __, r in result.hit_ratio_curve]
    assert ratios[0] == 0.0          # only the miss in hour 1
    assert ratios[1] == 0.5          # one hit of two
    assert ratios[2] == 2 / 3


def test_empty_metrics():
    result = ExperimentResult.from_metrics(
        protocol="flower",
        seed=9,
        population=100,
        duration_hours=2.0,
        metrics=MetricsCollector(),
    )
    assert result.queries == 0
    assert result.hit_ratio == 0.0
    assert result.lookup_cdf == []
    assert [r for __, r in result.hit_ratio_curve] == [0.0, 0.0]


def test_sub_window_duration_gives_empty_curve():
    result = ExperimentResult.from_metrics(
        protocol="flower",
        seed=9,
        population=100,
        duration_hours=0.25,
        metrics=MetricsCollector(),
    )
    assert result.hit_ratio_curve == []


def test_json_roundtrip_preserves_everything():
    result = ExperimentResult.from_metrics(
        protocol="squirrel",
        seed=9,
        population=100,
        duration_hours=3.0,
        metrics=filled_metrics(),
        extra={"ring_size": 42},
    )
    payload = json.loads(json.dumps(result.to_dict()))
    assert payload["extra"]["ring_size"] == 42
    assert payload["hit_ratio"] == result.hit_ratio
    assert payload["outcome_counts"]["hit_summary"] == 1
    assert payload["lookup_cdf"][-1][1] == 1.0
