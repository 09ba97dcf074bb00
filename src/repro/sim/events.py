"""The event heap's entries and their handles.

Events are slotted heap entries -- plain lists ``[time, seq, callback,
args]`` kept in a binary heap that :class:`~repro.sim.engine.Simulator`
owns.  The monotonically increasing sequence number breaks ties between
events scheduled for the same instant, so execution order is fully
deterministic: events fire in scheduling order when their times are equal.

Representation notes (the hot path of the whole simulator):

- Heap entries are *lists*, not handle objects.  ``heapq`` then compares
  entries with C-level list comparison (``time`` first, the unique ``seq``
  second -- the callback is never reached), instead of calling a
  Python-level ``__lt__`` millions of times per run.
- :class:`EventHandle` is a thin, lazily allocated view over an entry; the
  common fire-and-forget schedules (message deliveries, RPC timeouts) push
  the bare entry -- ``Simulator.defer`` and the transport's inlined copies
  of it -- and skip the handle allocation entirely.
- Cancellation is *lazy*: cancelling nulls the entry's callback slot
  (a tombstone) and the run loop discards tombstones when they surface at
  the top of the heap.  This is the standard approach (also used by
  ``sched`` and asyncio) and keeps both ``schedule`` and ``cancel``
  O(log n) / O(1).
- Tombstones are additionally *compacted*: when more than half the heap is
  dead (cancel/reschedule storms under churn), ``Simulator.cancel``
  rebuilds the heap from the live entries in O(n), bounding memory and pop
  cost.
"""

from __future__ import annotations

from typing import Any, List

#: Entry slot indices (an entry is ``[time, seq, callback, args]``).
_TIME, _SEQ, _CALLBACK, _ARGS = 0, 1, 2, 3

#: Tombstone count above which compaction is considered at all.
_COMPACT_MIN_DEAD = 64


class EventHandle:
    """A scheduled event that can be cancelled before it fires.

    Instances are returned by ``Simulator.schedule`` and
    ``Simulator.schedule_at``.  A handle is a view over the underlying heap
    entry.
    """

    __slots__ = ("_entry", "cancelled")

    def __init__(self, entry: List[Any]) -> None:
        self._entry = entry
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent.

        The callback reference is dropped immediately so cancelled events do
        not keep closures (and whatever they capture) alive until they drain
        from the heap.
        """
        self.cancelled = True
        entry = self._entry
        entry[_CALLBACK] = None
        entry[_ARGS] = ()

    @property
    def active(self) -> bool:
        """True while the event is still pending (not cancelled, not fired)."""
        return not self.cancelled and self._entry[_CALLBACK] is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        entry = self._entry
        return f"EventHandle(t={entry[_TIME]:.3f}, seq={entry[_SEQ]}, {state})"
