"""Content summaries exchanged during gossip.

Content peers "periodically exchange contacts ... and summaries of their
stored content" (paper section 3.1).  A summary answers one question --
*does this peer store object o?* -- and must be cheap to ship in a gossip
message.

:class:`ExactSummary` is a plain set of object keys: exact answers, size
linear in the number of stored objects.  A browsing peer stores at most a
few hundred objects, so exactness is affordable and keeps hit accounting
crisp.  :meth:`~ExactSummary.snapshot` produces an immutable copy suitable
for handing to another peer (simulated peers share one address space, so
sharing a mutable set would let the future leak into the past).
"""

from __future__ import annotations

from typing import Iterable, Set

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

    def snapshot(self) -> "ExactSummary":
        """An immutable-by-sharing value copy, O(1) until someone writes."""
        self._shared = True
        copy = ExactSummary.__new__(ExactSummary)
        copy._keys = self._keys
        copy._shared = True
        return copy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExactSummary({len(self._keys)} keys)"
