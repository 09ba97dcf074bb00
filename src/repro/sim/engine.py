"""The simulator: clock + event queue + RNG streams + trace bus.

One :class:`Simulator` instance drives an entire experiment.  Protocol code
never advances time itself; it only *schedules* callbacks::

    sim = Simulator(seed=42)
    sim.schedule(minutes(6), peer.issue_query)
    sim.run(until=hours(24))

The engine is single-threaded and deterministic: events at equal times fire
in scheduling order (see :mod:`repro.sim.events`).

Performance notes:

- :meth:`Simulator.run` is a *batched* loop that works directly on the heap
  of slotted entries -- no per-event ``peek``/``pop``/``_fire`` call chain
  and no handle-object churn.  Semantics (ordering, half-open ``until``,
  ``stop()``, cancellation) are bit-identical to the step-wise loop.
- :meth:`Simulator.emit` is subscriber-gated: it consults the trace
  recorder's cheap interest flags and skips event construction entirely
  when nobody listens (see :mod:`repro.sim.trace`).  Hot call sites can
  additionally guard on :meth:`Simulator.tracing` to avoid building the
  payload keyword dict at all.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim.events import EventHandle, EventQueue
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
        self._queue = EventQueue()
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
        return len(self._queue)

    @property
    def peak_pending_events(self) -> int:
        """High-water mark of simultaneously pending events."""
        return self._queue.peak_pending

    # ------------------------------------------------------------- scheduling
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
    ) -> EventHandle:
        """Schedule *callback(*args)* to run *delay* ms from now.

        Raises:
            SimulationError: if *delay* is negative (the past is immutable).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self._queue.push(self.now + delay, callback, args)

    def defer(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
    ) -> None:
        """Like :meth:`schedule` but fire-and-forget: no handle is returned
        (and none is allocated), so the event cannot be cancelled.

        The hot transport paths use this for message deliveries and RPC
        timeouts, which are never cancelled individually.  The push is
        inlined here (``EventQueue.push`` minus the handle) because this is
        the single most frequent scheduling call in a run.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        queue = self._queue
        seq = queue._seq
        queue._seq = seq + 1
        heappush(queue._heap, [self.now + delay, seq, callback, args])
        live = queue._live + 1
        queue._live = live
        if live > queue._peak:
            queue._peak = live

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
    ) -> EventHandle:
        """Schedule *callback(*args)* at absolute *time* (>= now)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        return self._queue.push(time, callback, args)

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a pending event.  Idempotent; safe on fired handles."""
        if handle.active:
            handle.cancel()
            self._queue.notify_cancelled()

    # ------------------------------------------------------------------- rng
    def rng(self, name: str) -> random.Random:
        """The named random stream (see :mod:`repro.sim.rng`)."""
        return self._rng.stream(name)

    @property
    def seed(self) -> int:
        """The master seed this simulator was created with."""
        return self._rng.master_seed

    # --------------------------------------------------------------- running
    def step(self) -> bool:
        """Execute the single next event.  Return False if none remained."""
        if not self._queue:
            return False
        handle = self._queue.pop()
        if handle.time < self.now:  # pragma: no cover - heap invariant
            raise SimulationError("event queue returned an event from the past")
        self.now = handle.time
        self._events_executed += 1
        handle._fire()
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the horizon *until* (ms), or the queue drains.

        When *until* is given, the clock is advanced exactly to it on return,
        so back-to-back ``run`` calls tile the timeline without gaps.  Events
        scheduled at exactly ``until`` are NOT executed (half-open interval
        ``[now, until)``), which makes ``run(until=t); run(until=t)`` a no-op.

        Args:
            until: absolute stop time in ms.
            max_events: optional safety valve for tests; exactly *max_events*
                events are allowed to execute -- a (max_events+1)-th pending
                event within the horizon raises :class:`SimulationError`
                *before* it runs.
        """
        if self._running:
            raise SimulationError("Simulator.run is not re-entrant")
        if until is not None and until < self.now:
            raise SimulationError(f"cannot run backwards (until={until}, now={self.now})")
        self._running = True
        self._stopped = False
        queue = self._queue
        executed = 0
        pop = heappop
        # Hoist the optional-argument checks out of the loop: both limits
        # degenerate to +inf comparisons, which cost one C-level compare.
        horizon = float("inf") if until is None else until
        limit = float("inf") if max_events is None else max_events
        # The heap list object is stable (compaction rebuilds it in place),
        # so its reference can be hoisted out of the loop.
        heap = queue._heap
        try:
            # Two copies of the dispatch loop: the common case (no event
            # budget) drops the per-event limit comparison entirely.  The
            # bodies are otherwise identical; keep them in sync.
            if max_events is None:
                while not self._stopped:
                    if not heap:
                        break
                    entry = heap[0]
                    if entry[2] is None:
                        # Discard tombstones of cancelled events (lazy deletion).
                        dead = queue._dead
                        while heap and heap[0][2] is None:
                            pop(heap)
                            if dead > 0:
                                dead -= 1
                        queue._dead = dead
                        continue
                    time = entry[0]
                    if time >= horizon:
                        break
                    pop(heap)
                    queue._live -= 1
                    self.now = time
                    executed += 1
                    callback = entry[2]
                    args = entry[3]
                    entry[2] = None
                    callback(*args)
            else:
                while not self._stopped:
                    if not heap:
                        break
                    entry = heap[0]
                    if entry[2] is None:
                        # Discard tombstones of cancelled events (lazy deletion).
                        dead = queue._dead
                        while heap and heap[0][2] is None:
                            pop(heap)
                            if dead > 0:
                                dead -= 1
                        queue._dead = dead
                        continue
                    time = entry[0]
                    if time >= horizon:
                        break
                    if executed >= limit:
                        raise SimulationError(f"exceeded max_events={max_events}")
                    pop(heap)
                    queue._live -= 1
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
    def tracing(self, kind: str) -> bool:
        """True if emitting *kind* would be observed by anyone.

        Hot paths guard their :meth:`emit` calls on this so that, when the
        recorder is fully quiet (counting disabled, nobody subscribed), not
        even the payload keyword dict is constructed.
        """
        trace = self.trace
        return trace._counting or trace._watch_all or kind in trace._watched

    def emit(self, kind: str, **payload: Any) -> None:
        """Emit a trace event stamped with the current simulation time."""
        trace = self.trace
        if trace._counting:
            trace.counters[kind] += 1
        if trace._watch_all or kind in trace._watched:
            trace._dispatch(TraceEvent(self.now, kind, payload))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self.now:.1f}ms, pending={self.pending_events}, "
            f"executed={self._events_executed})"
        )
