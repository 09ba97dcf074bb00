"""The event heap.

Events are slotted heap entries -- plain lists ``[time, seq, callback,
args]`` kept in a binary heap.  The monotonically increasing sequence number
breaks ties between events scheduled for the same instant, so execution
order is fully deterministic: events fire in scheduling order when their
times are equal.

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
  (a tombstone) and the queue discards tombstones when they surface at the
  top of the heap.  This is the standard approach (also used by ``sched``
  and asyncio) and keeps both ``schedule`` and ``cancel`` O(log n) / O(1).
- Tombstones are additionally *compacted*: when more than half the heap is
  dead (cancel/reschedule storms under churn), the queue rebuilds itself
  from the live entries in O(n), bounding memory and pop cost.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

#: Entry slot indices (an entry is ``[time, seq, callback, args]``).
_TIME, _SEQ, _CALLBACK, _ARGS = 0, 1, 2, 3

#: Tombstone count above which compaction is considered at all.
_COMPACT_MIN_DEAD = 64


class EventHandle:
    """A scheduled event that can be cancelled before it fires.

    Instances are returned by :meth:`EventQueue.push` (and therefore by
    ``Simulator.schedule``).  A handle is a view over the underlying heap
    entry; ``time`` reads through to it.
    """

    __slots__ = ("_entry", "cancelled")

    def __init__(self, entry: List[Any]) -> None:
        self._entry = entry
        self.cancelled = False

    @property
    def time(self) -> float:
        return self._entry[_TIME]

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

    def _fire(self) -> None:
        entry = self._entry
        callback, args = entry[_CALLBACK], entry[_ARGS]
        entry[_CALLBACK] = None
        entry[_ARGS] = ()
        if callback is not None:
            callback(*args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:.3f}, seq={self._entry[_SEQ]}, {state})"


class EventQueue:
    """A deterministic priority queue of slotted event entries."""

    __slots__ = ("_heap", "_seq", "_live", "_dead", "_peak")

    def __init__(self) -> None:
        self._heap: List[List[Any]] = []
        self._seq = 0
        self._live = 0
        self._dead = 0  # tombstones still sitting in the heap
        self._peak = 0  # high-water mark of pending events

    def __len__(self) -> int:
        """Number of *pending* (non-cancelled) events."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    @property
    def peak_pending(self) -> int:
        """High-water mark of simultaneously pending events."""
        return self._peak

    def push(
        self,
        time: float,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
    ) -> EventHandle:
        """Schedule *callback(*args)* at absolute *time*; return its handle."""
        seq = self._seq
        self._seq = seq + 1
        entry = [time, seq, callback, args]
        heappush(self._heap, entry)
        live = self._live + 1
        self._live = live
        if live > self._peak:
            self._peak = live
        return EventHandle(entry)

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` if the queue is empty."""
        self._discard_cancelled()
        if not self._heap:
            return None
        return self._heap[0][_TIME]

    def pop(self) -> EventHandle:
        """Remove and return the next pending event.

        Raises:
            IndexError: if no pending event remains.
        """
        self._discard_cancelled()
        if not self._heap:
            raise IndexError("pop from an empty event queue")
        entry = heappop(self._heap)
        self._live -= 1
        return EventHandle(entry)

    def notify_cancelled(self) -> None:
        """Account for one externally cancelled handle.

        The queue cannot observe :meth:`EventHandle.cancel` directly, so the
        owner (the simulator) calls this to keep ``len()`` accurate.  When
        tombstones come to dominate the heap, the queue compacts itself.
        """
        if self._live > 0:
            self._live -= 1
        dead = self._dead + 1
        self._dead = dead
        if dead > _COMPACT_MIN_DEAD and dead * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap from live entries only (O(n)).

        The rebuild is *in place* (slice assignment) so the heap list object
        is stable for the queue's whole lifetime -- ``Simulator.run`` hoists
        its reference out of the event loop.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if entry[_CALLBACK] is not None]
        heapify(heap)
        self._dead = 0

    def _discard_cancelled(self) -> None:
        heap = self._heap
        dead = self._dead
        while heap and heap[0][_CALLBACK] is None:
            heappop(heap)
            if dead > 0:
                dead -= 1
        self._dead = dead
