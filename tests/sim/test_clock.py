"""Unit tests for time-unit conversions."""

from repro.sim.clock import (
    HOUR,
    MINUTE,
    MS,
    SECOND,
    hours,
    minutes,
    seconds,
)


def test_unit_constants_are_consistent():
    assert SECOND == 1000 * MS
    assert MINUTE == 60 * SECOND
    assert HOUR == 60 * MINUTE


def test_seconds_minutes_hours():
    assert seconds(1.5) == 1500.0
    assert minutes(6) == 360_000.0
    assert hours(24) == 86_400_000.0


def test_fractional_units():
    assert minutes(0.5) == seconds(30)
    assert hours(1 / 60) == minutes(1)
