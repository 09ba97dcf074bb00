"""Zipf-distributed popularity.

"We apply Zipf distribution for object requests submitted to each website",
citing Breslau et al. (INFOCOM 1999), who measured web-request popularity as
Zipf-like with exponent alpha around 0.6-0.8.  We default to 0.8.

Sampling is inverse-CDF over precomputed cumulative probabilities --
O(log n) per sample via ``bisect``, one uniform draw per sample.  The
draw-to-rank mapping is part of the deterministic-replay contract (same
seed => same query sequence).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import List

from repro.errors import WorkloadError


class ZipfSampler:
    """Sample ranks 0..n-1 with P(rank i) proportional to 1/(i+1)^alpha.

    Rank 0 is the most popular item.

    Args:
        n: universe size.
        exponent: the Zipf alpha (>= 0; 0 degenerates to uniform).
    """

    def __init__(self, n: int, exponent: float = 0.8) -> None:
        if n < 1:
            raise WorkloadError(f"Zipf universe must be non-empty (got n={n})")
        if exponent < 0:
            raise WorkloadError(f"Zipf exponent must be >= 0 (got {exponent})")
        self.n = n
        self.exponent = exponent
        weights = [1.0 / (rank + 1) ** exponent for rank in range(n)]
        total = sum(weights)
        cumulative: List[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight
            cumulative.append(acc / total)
        cumulative[-1] = 1.0  # guard against floating-point shortfall
        self._cumulative = cumulative

    def probability(self, rank: int) -> float:
        """Exact probability mass of *rank*."""
        if not 0 <= rank < self.n:
            raise WorkloadError(f"rank {rank} outside [0, {self.n})")
        previous = self._cumulative[rank - 1] if rank > 0 else 0.0
        return self._cumulative[rank] - previous

    def sample(self, rng: random.Random) -> int:
        """One Zipf-distributed rank."""
        return bisect_left(self._cumulative, rng.random())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ZipfSampler(n={self.n}, alpha={self.exponent})"
