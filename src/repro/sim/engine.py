"""The simulator: clock + event heap + RNG streams + trace bus.

One :class:`Simulator` instance drives an entire experiment.  Protocol code
never advances time itself; it only *schedules* callbacks::

    sim = Simulator(seed=42)
    sim.schedule(minutes(6), peer.issue_query)
    sim.run(until=hours(24))

The engine is single-threaded and deterministic: events at equal times fire
in scheduling order (see :mod:`repro.sim.events`).

Performance notes:

- The simulator owns the event heap itself: ``_heap`` (entries
  ``[time, seq, callback, args]``), ``_seq`` (an :func:`itertools.count`),
  ``_dead`` (tombstones still in the heap) and ``_peak``.  The hot
  schedulers -- :meth:`Simulator.defer`, ``PeriodicProcess._tick`` and the
  transport's sends -- push an entry with one ``heappush`` statement.
- :meth:`Simulator.run` is the one dispatch loop: it works directly on
  the heap of slotted entries, with no per-event call chain and no handle
  churn.  It records the peak of pending events before each dispatch, so
  no push pays for that bookkeeping.
- :meth:`Simulator.emit` always counts (the per-kind counters feed the
  reports and the benchmark ledger) and is subscriber-gated past that: it
  consults the trace recorder's cheap interest flags and builds no
  :class:`~repro.sim.trace.TraceEvent` when nobody listens (see
  :mod:`repro.sim.trace`).
"""

from __future__ import annotations

import random
from heapq import heapify, heappop, heappush
from itertools import count
from typing import Any, Callable, List, Optional

from repro.errors import SimulationError
from repro.sim.events import _CALLBACK, _COMPACT_MIN_DEAD, EventHandle
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceEvent, TraceRecorder


class Simulator:
    """A deterministic discrete-event simulator.

    Args:
        seed: master seed for all named random streams.

    Attributes:
        now: current simulation time in milliseconds.
        trace: the :class:`~repro.sim.trace.TraceRecorder` event bus.
    """

    def __init__(self, seed: int = 0) -> None:
        self.now: float = 0.0
        self.trace = TraceRecorder()
        self._heap: List[List[Any]] = []
        self._seq = count()
        self._dead = 0  # tombstones still sitting in the heap
        self._peak = 0  # most events pending before one dispatch
        self._rng = RngRegistry(seed)
        self._running = False
        self._stopped = False
        self._events_executed = 0

    # ------------------------------------------------------------------ time
    @property
    def events_executed(self) -> int:
        """Total number of events executed so far (engine throughput metric)."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of events currently scheduled and not cancelled."""
        return len(self._heap) - self._dead

    @property
    def peak_pending_events(self) -> int:
        """High-water mark of simultaneously pending events.

        :meth:`run` samples the pending count before each dispatch; the
        count now is included, so events scheduled and not yet run count
        too.
        """
        return max(self._peak, self.pending_events)

    # ------------------------------------------------------------- scheduling
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
    ) -> EventHandle:
        """Schedule *callback*, called with *args*, to run *delay* ms from now.

        Raises:
            SimulationError: if *delay* is negative (the past is immutable).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        entry = [self.now + delay, next(self._seq), callback, args]
        heappush(self._heap, entry)
        return EventHandle(entry)

    def defer(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
    ) -> None:
        """Like :meth:`schedule` but fire-and-forget: no handle is returned
        (and none is allocated), so the event cannot be cancelled.

        The hot transport paths inline this push for message deliveries
        and RPC timeouts, which are never cancelled individually.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heappush(self._heap, [self.now + delay, next(self._seq), callback, args])

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
    ) -> EventHandle:
        """Schedule *callback*, called with *args*, at absolute *time* (>= now)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        entry = [time, next(self._seq), callback, args]
        heappush(self._heap, entry)
        return EventHandle(entry)

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a pending event.  Idempotent; safe on fired handles.

        The entry stays in the heap as a tombstone.  When tombstones come
        to dominate the heap (cancel storms under churn), it is rebuilt
        from the live entries *in place*, so :meth:`run` may hold on to
        the list object across the whole loop.
        """
        if handle.active:
            handle.cancel()
            dead = self._dead + 1
            self._dead = dead
            heap = self._heap
            if dead > _COMPACT_MIN_DEAD and dead * 2 > len(heap):
                heap[:] = [entry for entry in heap if entry[_CALLBACK] is not None]
                heapify(heap)
                self._dead = 0

    # ------------------------------------------------------------------- rng
    def rng(self, name: str) -> random.Random:
        """The named random stream (see :mod:`repro.sim.rng`)."""
        return self._rng.stream(name)

    @property
    def seed(self) -> int:
        """The master seed this simulator was created with."""
        return self._rng.master_seed

    # --------------------------------------------------------------- running
    def run(self, until: Optional[float] = None) -> None:
        """Run events until the horizon *until* (ms), the queue drains, or
        a callback calls :meth:`stop`.

        When *until* is given, the clock is advanced exactly to it on return
        (unless stopped), so back-to-back ``run`` calls tile the timeline
        without gaps.  Events scheduled at exactly ``until`` are NOT
        executed (half-open interval ``[now, until)``), which makes
        ``run(until=t); run(until=t)`` a no-op.
        """
        if self._running:
            raise SimulationError("Simulator.run is not re-entrant")
        if until is not None and until < self.now:
            raise SimulationError(f"cannot run backwards (until={until}, now={self.now})")
        self._running = True
        self._stopped = False
        executed = 0
        pop = heappop
        # Hoist the optional-argument check out of the loop: no horizon
        # degenerates to a +inf comparison, which costs one C-level compare.
        horizon = float("inf") if until is None else until
        # The heap list object is stable (compaction rebuilds it in place),
        # so its reference can be hoisted out of the loop.
        heap = self._heap
        peak = self._peak
        try:
            while not self._stopped:
                if not heap:
                    break
                entry = heap[0]
                if entry[2] is None:
                    # Discard tombstones of cancelled events (lazy deletion).
                    dead = self._dead
                    while heap and heap[0][2] is None:
                        pop(heap)
                        if dead > 0:
                            dead -= 1
                    self._dead = dead
                    continue
                time = entry[0]
                if time >= horizon:
                    break
                pending = len(heap) - self._dead
                if pending > peak:
                    peak = self._peak = pending
                pop(heap)
                self.now = time
                executed += 1
                callback = entry[2]
                args = entry[3]
                entry[2] = None
                callback(*args)
            if until is not None and not self._stopped:
                self.now = until
        finally:
            self._events_executed += executed
            self._running = False

    def stop(self) -> None:
        """Stop the current :meth:`run` after the executing event returns."""
        self._stopped = True

    # ----------------------------------------------------------------- trace
    def emit(self, kind: str, **payload: Any) -> None:
        """Emit a trace event stamped with the current simulation time."""
        trace = self.trace
        trace.counters[kind] += 1
        if trace._watch_all or kind in trace._watched:
            trace._dispatch(TraceEvent(self.now, kind, payload))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self.now:.1f}ms, pending={self.pending_events}, "
            f"executed={self._events_executed})"
        )
