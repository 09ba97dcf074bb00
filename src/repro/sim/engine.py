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
  ``stop()``, cancellation) are bit-identical to the step-wise loop,
  which is what serves the tests' ``max_events`` budget: there is one
  copy of the inlined dispatch, and it knows no budget.
- :meth:`Simulator.emit` always counts (the per-kind counters feed the
  reports and the benchmark ledger) and is subscriber-gated past that: it
  consults the trace recorder's cheap interest flags and builds no
  :class:`~repro.sim.trace.TraceEvent` when nobody listens (see
  :mod:`repro.sim.trace`).
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
        """Schedule *callback*, called with *args*, to run *delay* ms from now.

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
        """Schedule *callback*, called with *args*, at absolute *time* (>= now)."""
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
        # Hoist the optional-argument check out of the loop: no horizon
        # degenerates to a +inf comparison, which costs one C-level compare.
        horizon = float("inf") if until is None else until
        # The heap list object is stable (compaction rebuilds it in place),
        # so its reference can be hoisted out of the loop.
        heap = queue._heap
        try:
            if max_events is not None:
                self._run_budgeted(horizon, max_events)
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

    def _run_budgeted(self, horizon: float, max_events: int) -> None:
        """The ``max_events`` safety valve, served stepwise: tests are its
        only callers, so it costs the batched loop not even a comparison."""
        queue = self._queue
        for ran in range(max_events + 1):
            time = queue.peek_time()
            if self._stopped or time is None or time >= horizon:
                return
            if ran == max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
            self.step()

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
