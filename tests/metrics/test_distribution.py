"""Unit and property tests for empirical distributions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CDNError
from repro.metrics.distribution import (
    LOOKUP_LATENCY_EDGES,
    TRANSFER_DISTANCE_EDGES,
    Distribution,
)


def test_empty_distribution():
    dist = Distribution([])
    assert dist.empty
    assert dist.percentile(50) == 0.0
    assert dist.fraction_below(10) == 0.0
    assert dist.histogram([1.0, 2.0]) == {}
    assert dist.cdf_points() == []


def test_moments():
    dist = Distribution([30.0, 10.0, 20.0])
    assert dist.percentile(0) == 10.0  # the minimum
    assert dist.percentile(100) == 30.0  # the maximum
    assert len(dist) == 3


def test_percentiles_nearest_rank():
    dist = Distribution(range(1, 101))  # 1..100
    assert dist.percentile(50) == 50
    assert dist.percentile(90) == 90
    assert dist.percentile(100) == 100
    assert dist.percentile(1) == 1


def test_percentile_bounds():
    dist = Distribution([1.0])
    with pytest.raises(CDNError):
        dist.percentile(101)
    with pytest.raises(CDNError):
        dist.percentile(-1)


def test_fraction_below_and_above():
    dist = Distribution([100, 200, 300, 400])
    assert dist.fraction_below(250) == 0.5
    assert dist.fraction_below(400) == 1.0
    assert dist.fraction_below(50) == 0.0


def test_fraction_below_is_inclusive():
    dist = Distribution([100, 100, 200])
    assert dist.fraction_below(100) == pytest.approx(2 / 3)


def test_histogram_buckets_sum_to_one():
    dist = Distribution([10, 100, 200, 500, 1000, 1500, 2500])
    hist = dist.histogram(LOOKUP_LATENCY_EDGES)
    assert abs(sum(hist.values()) - 1.0) < 1e-12
    assert hist["<=150"] == pytest.approx(2 / 7)
    assert hist[">1200"] == pytest.approx(2 / 7)


def test_histogram_labels_match_paper_buckets():
    dist = Distribution([10])
    labels = list(dist.histogram(TRANSFER_DISTANCE_EDGES))
    assert labels == ["<=50", "50-100", "100-150", "150-200", "200-300", ">300"]


def test_histogram_rejects_unsorted_edges():
    dist = Distribution([1.0])
    with pytest.raises(CDNError):
        dist.histogram([5.0, 2.0])
    with pytest.raises(CDNError):
        dist.histogram([2.0, 2.0])


def test_cdf_points_end_at_one():
    dist = Distribution(range(100))
    points = dist.cdf_points(10)
    assert points[-1][1] == 1.0
    values = [v for v, __ in points]
    fractions = [f for __, f in points]
    assert values == sorted(values)
    assert fractions == sorted(fractions)


@given(samples=st.lists(st.floats(0, 1e6), min_size=1, max_size=200))
@settings(max_examples=100, deadline=None)
def test_property_percentile_monotone(samples):
    dist = Distribution(samples)
    previous = min(samples)
    for q in (10, 25, 50, 75, 90, 100):
        value = dist.percentile(q)
        assert value >= previous
        previous = value


@given(
    samples=st.lists(st.floats(0, 1000), min_size=1, max_size=100),
    threshold=st.floats(0, 1000),
)
@settings(max_examples=100, deadline=None)
def test_property_fractions_complementary(samples, threshold):
    dist = Distribution(samples)
    above = sum(1 for sample in samples if sample > threshold) / len(samples)
    assert abs(dist.fraction_below(threshold) + above - 1.0) < 1e-9
