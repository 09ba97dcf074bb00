"""Bucketed distributions, CDFs and percentiles (Figures 4 and 5).

The paper reports latency and distance *distributions*: "66 % of our queries
are resolved within 150 ms while 75 % of Squirrel's queries take more than
1200 ms" (Fig. 4) and "the percentage of queries served from a distance
within 100 ms is 62 % for Flower-CDN and 22 % for Squirrel" (Fig. 5).
:class:`Distribution` answers exactly those questions.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from repro.errors import CDNError

#: Bucket edges (ms) used to mirror the paper's Figure 4 bar chart.
LOOKUP_LATENCY_EDGES = (150.0, 300.0, 600.0, 900.0, 1200.0)

#: Bucket edges (ms) used to mirror the paper's Figure 5 bar chart.
TRANSFER_DISTANCE_EDGES = (50.0, 100.0, 150.0, 200.0, 300.0)


class Distribution:
    """An immutable empirical distribution over non-negative samples."""

    def __init__(self, samples: Sequence[float]) -> None:
        self._sorted: List[float] = sorted(samples)

    def __len__(self) -> int:
        return len(self._sorted)

    @property
    def empty(self) -> bool:
        return not self._sorted

    # ---------------------------------------------------------- percentiles
    def percentile(self, q: float) -> float:
        """The q-th percentile (nearest-rank), q in [0, 100]."""
        if not 0.0 <= q <= 100.0:
            raise CDNError(f"percentile must be in [0, 100] (got {q})")
        if self.empty:
            return 0.0
        rank = max(1, math.ceil(q / 100.0 * len(self._sorted)))
        return self._sorted[rank - 1]

    # ---------------------------------------------------------------- shape
    def fraction_below(self, threshold: float) -> float:
        """P(X <= threshold) -- e.g. "resolved within 150 ms"."""
        if self.empty:
            return 0.0
        import bisect

        return bisect.bisect_right(self._sorted, threshold) / len(self._sorted)

    def histogram(self, edges: Sequence[float]) -> Dict[str, float]:
        """Fractions per bucket, edges ascending; adds a final overflow
        bucket ``> last_edge``.  Bucket labels mirror the paper's figures:
        ``<=150``, ``150-300``, ..., ``>1200``.
        """
        if list(edges) != sorted(edges) or len(set(edges)) != len(edges):
            raise CDNError("histogram edges must be strictly ascending")
        if self.empty:
            return {}
        buckets: Dict[str, float] = {}
        previous = 0.0
        previous_fraction = 0.0
        for edge in edges:
            fraction = self.fraction_below(edge)
            label = f"<={edge:g}" if previous == 0.0 else f"{previous:g}-{edge:g}"
            buckets[label] = fraction - previous_fraction
            previous, previous_fraction = edge, fraction
        buckets[f">{previous:g}"] = 1.0 - previous_fraction
        return buckets

    def cdf_points(self, num_points: int = 50) -> List[tuple]:
        """(value, cumulative fraction) pairs for plotting."""
        if self.empty:
            return []
        n = len(self._sorted)
        step = max(1, n // num_points)
        points = [
            (self._sorted[i], (i + 1) / n) for i in range(0, n, step)
        ]
        if points[-1] != (self._sorted[-1], 1.0):
            points.append((self._sorted[-1], 1.0))
        return points


class WeightedDistribution:
    """An empirical distribution whose samples carry weights.

    Used for the *byte-weighted* transfer-distance view (Figure 5
    extension): with heavy-tailed object sizes, "62% of queries within
    100 ms" can hide most of the *traffic* coming from far away -- here
    each sample (a transfer distance) is weighted by the bytes it moved,
    so the CDF at 100 answers "what fraction of bytes travelled within
    100 ms".
    """

    def __init__(self, samples: Sequence[tuple]) -> None:
        pairs = sorted((float(v), float(w)) for v, w in samples if w > 0)
        self._values: List[float] = [v for v, _ in pairs]
        self._cumulative: List[float] = []
        total = 0.0
        for _, weight in pairs:
            total += weight
            self._cumulative.append(total)
        self._total = total

    @property
    def empty(self) -> bool:
        return not self._values

    def mean(self) -> float:
        """The weight-averaged sample value."""
        if self.empty:
            return 0.0
        weighted = self._cumulative[0] * self._values[0]
        for i in range(1, len(self._values)):
            weighted += (
                self._cumulative[i] - self._cumulative[i - 1]
            ) * self._values[i]
        return weighted / self._total

    def cdf_points(self, num_points: int = 50) -> List[tuple]:
        """(value, cumulative weight fraction) pairs for plotting."""
        if self.empty:
            return []
        n = len(self._values)
        step = max(1, n // num_points)
        points = [
            (self._values[i], self._cumulative[i] / self._total)
            for i in range(0, n, step)
        ]
        last = (self._values[-1], 1.0)
        if points[-1] != last:
            points.append(last)
        return points
