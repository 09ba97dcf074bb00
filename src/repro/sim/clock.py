"""Time units for the simulation clock.

The simulator's clock is a float counting **milliseconds** since the start of
the experiment.  Milliseconds are the natural unit because the paper's link
latencies span 10-500 ms, while its protocol periods are given in minutes and
hours (Table 1).  These helpers keep unit conversions explicit at call sites:
``sim.schedule(minutes(6), ...)`` reads as the paper writes it.
"""

from __future__ import annotations

#: One millisecond -- the base unit of the simulation clock.
MS: float = 1.0

#: Milliseconds in one second.
SECOND: float = 1000.0 * MS

#: Milliseconds in one minute.
MINUTE: float = 60.0 * SECOND

#: Milliseconds in one hour.
HOUR: float = 60.0 * MINUTE


def seconds(value: float) -> float:
    """Convert *value* seconds to simulation-clock milliseconds."""
    return value * SECOND


def minutes(value: float) -> float:
    """Convert *value* minutes to simulation-clock milliseconds."""
    return value * MINUTE


def hours(value: float) -> float:
    """Convert *value* hours to simulation-clock milliseconds."""
    return value * HOUR
