"""Hit ratio over time (Figure 3).

Figure 3 plots "the evolution of hit ratio with time" over 24 simulated
hours.  :class:`RatioSeries` ingests (time, success) observations and can
report the curve two ways:

- **cumulative** -- hit ratio of everything seen up to each window edge
  (a smoothed, monotone-converging curve: what the paper plots);
- **windowed** -- the hit ratio within each window (noisier, useful for
  spotting regime changes such as a directory-peer failure).
"""

from __future__ import annotations

from typing import List, NamedTuple

from repro.errors import CDNError


class RatioPoint(NamedTuple):
    time: float
    ratio: float
    total: int


class RatioSeries:
    """(time, bool) observations -> ratio-over-time curves."""

    def __init__(self) -> None:
        self._times: List[float] = []
        self._successes: List[bool] = []

    def observe(self, time: float, success: bool) -> None:
        if self._times and time < self._times[-1]:
            raise CDNError("observations must arrive in time order")
        self._times.append(time)
        self._successes.append(success)

    def __len__(self) -> int:
        return len(self._times)

    def cumulative(self, window_ms: float, until: float) -> List[RatioPoint]:
        """Cumulative ratio sampled every *window_ms* up to *until*."""
        self._validate(window_ms, until)
        points: List[RatioPoint] = []
        index = 0
        hits = 0
        edge = window_ms
        n = len(self._times)
        while edge <= until + 1e-9:
            while index < n and self._times[index] <= edge:
                hits += 1 if self._successes[index] else 0
                index += 1
            ratio = hits / index if index else 0.0
            points.append(RatioPoint(edge, ratio, index))
            edge += window_ms
        return points

    def windowed(self, window_ms: float, until: float) -> List[RatioPoint]:
        """Per-window ratio sampled every *window_ms* up to *until*."""
        self._validate(window_ms, until)
        points: List[RatioPoint] = []
        index = 0
        edge = window_ms
        n = len(self._times)
        while edge <= until + 1e-9:
            hits = 0
            count = 0
            while index < n and self._times[index] <= edge:
                hits += 1 if self._successes[index] else 0
                count += 1
                index += 1
            ratio = hits / count if count else 0.0
            points.append(RatioPoint(edge, ratio, count))
            edge += window_ms
        return points

    @staticmethod
    def _validate(window_ms: float, until: float) -> None:
        if window_ms <= 0:
            raise CDNError(f"window must be positive (got {window_ms})")
        if until < window_ms:
            raise CDNError("horizon must cover at least one window")
