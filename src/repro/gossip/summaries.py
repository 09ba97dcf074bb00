"""Content summaries exchanged during gossip.

Content peers "periodically exchange contacts ... and summaries of their
stored content" (paper section 3.1).  A summary answers one question --
*does this peer (probably) store object o?* -- and must be cheap to ship in
a gossip message.  Two implementations:

:class:`ExactSummary`
    A plain set of object keys.  Exact answers; size linear in the number of
    stored objects.  The default: a browsing peer stores at most a few
    hundred objects, so exactness is affordable and keeps hit accounting
    crisp.

:class:`BloomSummary`
    A Bloom filter: constant size, no false negatives, tunable false-positive
    rate.  A false positive makes a peer fetch from a provider that turns out
    not to have the object -- the ablation benchmarks quantify that cost.

Both are value objects: :meth:`snapshot` produces an immutable copy suitable
for handing to another peer (simulated peers share one address space, so
sharing a mutable set would let the future leak into the past).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List, Set

from repro.errors import CDNError
from repro.types import ObjectKey


class ExactSummary:
    """Exact set-of-keys summary with copy-on-write snapshots.

    ``snapshot()`` used to eagerly copy the whole key set -- once per gossip
    exchange per peer, i.e. thousands of copies per simulated hour.  Instead,
    a snapshot now *shares* the underlying set and both sides are marked
    shared; the first subsequent ``add`` or ``discard`` on either side
    copies before writing.  Receivers only ever call ``contains``, so in
    the common case no copy is ever made and a snapshot is O(1).
    """

    __slots__ = ("_keys", "_shared")

    kind = "exact"

    def __init__(self, keys: Iterable[ObjectKey] = ()) -> None:
        self._keys: Set[ObjectKey] = set(keys)
        self._shared = False

    def add(self, key: ObjectKey) -> None:
        if self._shared:
            self._keys = set(self._keys)  # copy-on-write
            self._shared = False
        self._keys.add(key)

    def discard(self, keys: Iterable[ObjectKey]) -> None:
        """Stop advertising *keys* (cache evictions).  Like :meth:`add`,
        never writes to a set an earlier snapshot still reads."""
        if self._shared:
            self._keys = set(self._keys)  # copy-on-write
            self._shared = False
        self._keys.difference_update(keys)

    def contains(self, key: ObjectKey) -> bool:
        return key in self._keys

    def __len__(self) -> int:
        return len(self._keys)

    def snapshot(self) -> "ExactSummary":
        """An immutable-by-sharing value copy, O(1) until someone writes."""
        self._shared = True
        copy = ExactSummary.__new__(ExactSummary)
        copy._keys = self._keys
        copy._shared = True
        return copy

    def keys(self) -> Set[ObjectKey]:
        """The exact key set (used by directory peers to rebuild indexes)."""
        return set(self._keys)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExactSummary({len(self._keys)} keys)"


class BloomSummary:
    """Bloom-filter summary: no false negatives, bounded false positives.

    Args:
        num_bits: filter width in bits.
        num_hashes: hash functions k.

    ``expected_fpr(n)`` gives the theoretical false-positive rate after *n*
    insertions: ``(1 - e^(-k*n/m))^k``.
    """

    kind = "bloom"

    def __init__(self, num_bits: int = 2048, num_hashes: int = 4) -> None:
        if num_bits < 8 or num_hashes < 1:
            raise CDNError(
                f"invalid Bloom parameters (bits={num_bits}, hashes={num_hashes})"
            )
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._bits = 0  # an int used as a bit set
        self._count = 0

    def _positions(self, key: ObjectKey) -> List[int]:
        digest = hashlib.sha256(f"{key[0]}/{key[1]}".encode("utf-8")).digest()
        positions = []
        for i in range(self.num_hashes):
            chunk = digest[4 * i: 4 * i + 4]
            positions.append(int.from_bytes(chunk, "big") % self.num_bits)
        return positions

    def add(self, key: ObjectKey) -> None:
        for position in self._positions(key):
            self._bits |= 1 << position
        self._count += 1

    def contains(self, key: ObjectKey) -> bool:
        return all(self._bits >> p & 1 for p in self._positions(key))

    def __len__(self) -> int:
        return self._count

    def snapshot(self) -> "BloomSummary":
        copy = BloomSummary(self.num_bits, self.num_hashes)
        copy._bits = self._bits
        copy._count = self._count
        return copy

    def expected_fpr(self, n_items: int) -> float:
        """Theoretical false-positive rate after *n_items* insertions."""
        import math

        k, m = self.num_hashes, self.num_bits
        return (1.0 - math.exp(-k * n_items / m)) ** k

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BloomSummary({self._count} keys, {self.num_bits} bits)"


def make_summary(kind: str) -> "ExactSummary | BloomSummary":
    """Factory keyed by config string (``"exact"`` or ``"bloom"``)."""
    if kind == "exact":
        return ExactSummary()
    if kind == "bloom":
        return BloomSummary()
    raise CDNError(f"unknown summary kind {kind!r}")
