"""Seeded heavy-tailed object sizes and chunk geometry.

The paper's workload treats every object as a unit payload; transfer
distance (fig 5) is therefore a hop proxy.  To make byte-level transfer
metrics meaningful, each object key is assigned a size drawn from a
**bounded Pareto** distribution — the classic heavy-tailed web-object
model: most objects are small, a fat tail is large enough to need
chunked, multi-source delivery.

Determinism: the size of a key is a *pure function* of ``(seed, key)``
via :func:`derive_seed` — no shared RNG stream is consumed, so enabling
sizes cannot perturb any other draw, and the same key gets the same size
on every peer, shard, and run.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.errors import ConfigError
from repro.sim.rng import derive_seed
from repro.types import ObjectKey

__all__ = ["ObjectSizeModel"]


class ObjectSizeModel:
    """Per-key deterministic sizes plus fixed-chunk geometry.

    Sizes follow a bounded Pareto with shape ``alpha`` whose scale is
    chosen so the *unbounded* mean is ``mean_kb`` (``x_m = mean_kb *
    (alpha - 1) / alpha``), truncated at ``max_kb`` by inverse-CDF on a
    bounded support.  Objects are split into fixed ``chunk_kb`` chunks;
    the final chunk carries the remainder.

    Args:
        mean_kb: target mean object size, kilobytes.
        alpha: Pareto shape (>1; smaller = heavier tail).
        max_kb: hard cap on object size, kilobytes.
        chunk_kb: chunk size, kilobytes.
        seed: master seed for the per-key draw.
    """

    def __init__(
        self,
        mean_kb: float = 64.0,
        alpha: float = 1.5,
        max_kb: float = 4096.0,
        chunk_kb: int = 64,
        seed: int = 0,
    ) -> None:
        if alpha <= 1.0:
            raise ConfigError(f"alpha must be > 1 (got {alpha})")
        if mean_kb <= 0:
            raise ConfigError(f"mean_kb must be positive (got {mean_kb})")
        if chunk_kb <= 0:
            raise ConfigError(f"chunk_kb must be positive (got {chunk_kb})")
        self.mean_kb = mean_kb
        self.alpha = alpha
        self.chunk_bytes = int(chunk_kb) * 1024
        self.seed = seed
        # Scale so the unbounded Pareto mean is mean_kb.
        self._x_m = mean_kb * (alpha - 1.0) / alpha
        self._max_kb = max(max_kb, self._x_m * 2.0)
        self._cache: Dict[ObjectKey, int] = {}

    def size_bytes(self, key: ObjectKey) -> int:
        """The deterministic size of ``key`` in bytes (memoized)."""
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        u = random.Random(derive_seed(self.seed, f"objsize:{key}")).random()
        a, lo, hi = self.alpha, self._x_m, self._max_kb
        # Inverse CDF of the Pareto truncated to [lo, hi].
        trunc = 1.0 - (lo / hi) ** a
        kb = lo / (1.0 - u * trunc) ** (1.0 / a)
        size = max(1024, int(kb * 1024.0))
        self._cache[key] = size
        return size

    def chunk_count(self, key: ObjectKey) -> int:
        size = self.size_bytes(key)
        return (size + self.chunk_bytes - 1) // self.chunk_bytes

    def chunk_sizes(self, key: ObjectKey) -> List[int]:
        """Byte size of each chunk; the last carries the remainder."""
        size = self.size_bytes(key)
        full, rem = divmod(size, self.chunk_bytes)
        sizes = [self.chunk_bytes] * full
        if rem:
            sizes.append(rem)
        return sizes

    def chunk_size(self, key: ObjectKey, index: int) -> int:
        count = self.chunk_count(key)
        if not 0 <= index < count:
            raise ConfigError(f"chunk index {index} out of range for {key}")
        if index < count - 1:
            return self.chunk_bytes
        rem = self.size_bytes(key) % self.chunk_bytes
        return rem if rem else self.chunk_bytes
