"""Deterministic named random streams.

Every stochastic component of the simulation (topology generation, churn,
workload, gossip peer selection, ...) draws from its own named stream.  Two
properties follow:

1. **Reproducibility** -- a whole experiment is a pure function of
   ``(config, master_seed)``; re-running with the same seed replays the same
   trajectory event for event.
2. **Variance isolation** -- changing how one component consumes randomness
   (say, adding a jitter draw to gossip) does not perturb the random
   sequences seen by unrelated components, which keeps A/B comparisons
   between protocol variants meaningful.

Stream seeds are derived from the master seed and the stream name with
SHA-256, so they are stable across processes and Python versions
(``hash()`` is randomized per process and must not be used here).
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from *master_seed* and a stream *name*."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """A factory of named, independently seeded ``random.Random`` streams."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = master_seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream called *name*, creating it on first use.

        Repeated calls with the same name return the *same* generator object,
        so consumers may either hold a reference or re-fetch it each time.
        """
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(derive_seed(self.master_seed, name))
            self._streams[name] = stream
        return stream

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngRegistry(master_seed={self.master_seed}, streams={sorted(self._streams)})"
