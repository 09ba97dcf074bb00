"""Periodic processes.

Most maintenance behaviour in the paper is periodic: gossip exchanges and
keepalive messages every hour (Table 1), Chord stabilization, query
generation every 6 minutes.  :class:`PeriodicProcess` wraps the schedule /
reschedule / cancel dance and supports two refinements the experiments need:

- **phase jitter** -- real peers do not tick in lock-step; an optional
  random initial phase (and per-tick jitter) desynchronizes the population,
  which avoids artificial event storms at exact multiples of the period.
- **clean cancellation** -- when a peer fails, all its processes must stop;
  cancelling is O(1) and idempotent.
"""

from __future__ import annotations

import random
from heapq import heappush
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.events import EventHandle

#: ``EventHandle.__new__`` bound once -- the per-tick reschedule builds the
#: handle by slot assignment instead of paying a constructor frame.
_new_handle = EventHandle.__new__


class PeriodicProcess:
    """Run ``callback()`` every *period* ms until cancelled.

    Args:
        sim: the owning simulator.
        period: tick period in ms (must be positive).
        callback: zero-argument callable invoked each tick.
        initial_delay: delay before the first tick; defaults to one full
            period.  Pass ``0.0`` to tick immediately.
        jitter: if non-zero, each inter-tick gap is drawn uniformly from
            ``[period * (1 - jitter), period * (1 + jitter)]``.
        rng: random stream used for jitter (required when jitter > 0).
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[], Any],
        initial_delay: Optional[float] = None,
        jitter: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if period <= 0:
            raise SimulationError(f"period must be positive (got {period})")
        if not 0.0 <= jitter < 1.0:
            raise SimulationError(f"jitter must be in [0, 1) (got {jitter})")
        if jitter > 0.0 and rng is None:
            raise SimulationError("jitter requires an rng stream")
        self._sim = sim
        self._period = period
        self._callback = callback
        self._jitter = jitter
        self._rng = rng
        self._handle: Optional[EventHandle] = None
        self._cancelled = False
        #: ``self._tick`` bound once: rescheduling happens every tick, and a
        #: fresh bound method per schedule is measurable at fleet scale.
        self._tick_cb = self._tick
        first = period if initial_delay is None else initial_delay
        self._handle = sim.schedule(first, self._tick_cb)

    @property
    def active(self) -> bool:
        """True while the process will keep ticking."""
        return not self._cancelled

    def cancel(self) -> None:
        """Stop the process.  Idempotent."""
        if self._cancelled:
            return
        self._cancelled = True
        # ``_tick_cb`` is a reference to ourselves and ``_callback`` usually
        # one to our owner, which points back at us: drop both, so that the
        # process and whatever the callback is bound to (a stopped directory
        # role's whole index) are freed by refcount when the owner lets go,
        # not by some later pass of the cyclic collector.
        self._tick_cb = self._callback = None
        if self._handle is not None:
            self._sim.cancel(self._handle)
            self._handle = None

    def _tick(self) -> None:
        if self._cancelled:  # cancelled while the tick event was in flight
            return
        # Reschedule before running the callback so the callback may cancel
        # the process (a peer deciding to leave mid-tick must not resurrect).
        #
        # The gap draw, ``rng.uniform`` and ``sim.schedule`` are all
        # inlined below: a tick is two Python frames (this one and the
        # callback) instead of five, and every periodic process in the
        # system ticks for the whole run.
        jitter = self._jitter
        period = self._period
        if jitter == 0.0:
            gap = period
        else:
            low = period * (1.0 - jitter)
            high = period * (1.0 + jitter)
            # rng.uniform(low, high), inlined -- same float expression, so
            # the drawn sequence is bit-identical.
            gap = low + (high - low) * self._rng.random()
        sim = self._sim
        entry = [sim.now + gap, next(sim._seq), self._tick_cb, ()]
        heappush(sim._heap, entry)
        handle = _new_handle(EventHandle)
        handle._entry = entry
        handle.cancelled = False
        self._handle = handle
        self._callback()


def desynchronized_start(period: float, rng: random.Random) -> float:
    """A random initial delay in ``[0, period)``.

    Used when many peers start the same periodic protocol at once (e.g. the
    initial directory-peer population): spreading first ticks uniformly over
    one period models peers that joined at different real times.
    """
    return rng.uniform(0.0, period)
