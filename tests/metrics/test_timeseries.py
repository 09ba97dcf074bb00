"""Unit tests for the hit-ratio time series."""

import pytest

from repro.errors import CDNError
from repro.metrics.timeseries import RatioSeries


def filled_series():
    series = RatioSeries()
    # window 1 (0-10]: 2 hits of 3; window 2 (10-20]: 0 of 1; window 3: empty
    series.observe(1.0, True)
    series.observe(5.0, True)
    series.observe(9.0, False)
    series.observe(15.0, False)
    return series


def test_observe_requires_time_order():
    series = RatioSeries()
    series.observe(5.0, True)
    with pytest.raises(CDNError):
        series.observe(4.0, True)


def test_cumulative_curve():
    series = filled_series()
    points = series.cumulative(window_ms=10.0, until=30.0)
    assert [p.time for p in points] == [10.0, 20.0, 30.0]
    assert points[0].ratio == pytest.approx(2 / 3)
    assert points[0].total == 3
    assert points[1].ratio == pytest.approx(2 / 4)
    assert points[2].ratio == pytest.approx(2 / 4)  # no new data: flat
    assert points[2].total == 4


def test_windowed_curve():
    series = filled_series()
    points = series.windowed(window_ms=10.0, until=30.0)
    assert points[0].ratio == pytest.approx(2 / 3)
    assert points[1].ratio == 0.0
    assert points[1].total == 1
    assert points[2].total == 0
    assert points[2].ratio == 0.0


def test_empty_series_curves():
    series = RatioSeries()
    points = series.cumulative(10.0, 20.0)
    assert [p.ratio for p in points] == [0.0, 0.0]


def test_validation():
    series = filled_series()
    with pytest.raises(CDNError):
        series.cumulative(0.0, 10.0)
    with pytest.raises(CDNError):
        series.windowed(10.0, 5.0)


def test_boundary_observation_included_in_first_window():
    series = RatioSeries()
    series.observe(10.0, True)
    points = series.cumulative(10.0, 10.0)
    assert points[0].total == 1
