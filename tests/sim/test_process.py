"""Unit tests for periodic processes."""

import weakref

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess, desynchronized_start


def test_ticks_at_fixed_period():
    sim = Simulator()
    times = []
    PeriodicProcess(sim, 10.0, lambda: times.append(sim.now))
    sim.run(until=45.0)
    assert times == [10.0, 20.0, 30.0, 40.0]


def test_initial_delay_zero_ticks_immediately():
    sim = Simulator()
    times = []
    PeriodicProcess(sim, 10.0, lambda: times.append(sim.now), initial_delay=0.0)
    sim.run(until=25.0)
    assert times == [0.0, 10.0, 20.0]


def test_custom_initial_delay():
    sim = Simulator()
    times = []
    PeriodicProcess(sim, 10.0, lambda: times.append(sim.now), initial_delay=3.0)
    sim.run(until=25.0)
    assert times == [3.0, 13.0, 23.0]


def test_cancel_stops_future_ticks():
    sim = Simulator()
    times = []
    process = PeriodicProcess(sim, 10.0, lambda: times.append(sim.now))
    sim.schedule(25.0, process.cancel)
    sim.run(until=100.0)
    assert times == [10.0, 20.0]
    assert not process.active


def test_callback_may_cancel_its_own_process():
    sim = Simulator()
    process_box = []
    times = []

    def tick():
        times.append(sim.now)
        if sim.now >= 20.0:
            process_box[0].cancel()

    process_box.append(PeriodicProcess(sim, 10.0, tick))
    sim.run(until=100.0)
    assert times == [10.0, 20.0]


class Ticker:
    """Owns a process whose callback is bound to it, like every role."""

    def __init__(self, sim, stop_at=float("inf")):
        self.sim = sim
        self.stop_at = stop_at
        self.ticks = 0
        self.process = PeriodicProcess(sim, 10.0, self.tick)

    def tick(self):
        self.ticks += 1
        if self.sim.now >= self.stop_at:
            self.process.cancel()


def test_cancelled_process_and_its_owner_die_by_refcount(refcount_only):
    """Cancelling drops the process's reference to itself (its bound tick)
    and to its owner: both go with the last outside reference, collector
    off."""
    sim = Simulator()
    ticker = Ticker(sim)
    sim.run(until=25.0)
    refs = [weakref.ref(ticker), weakref.ref(ticker.process)]
    ticker.process.cancel()
    del ticker
    assert [ref() for ref in refs] == [None, None]


def test_cancelling_inside_the_tick_frees_without_resurrecting(refcount_only):
    """The tick reschedules itself before it runs the callback; a callback
    that cancels must kill that event too, and release the process while
    its own tick is still on the stack."""
    sim = Simulator()
    ticker = Ticker(sim, stop_at=20.0)
    process = weakref.ref(ticker.process)
    sim.run(until=100.0)
    assert ticker.ticks == 2
    assert sim.pending_events == 0
    del ticker
    assert process() is None


def test_cancel_is_idempotent():
    sim = Simulator()
    times = []
    process = PeriodicProcess(sim, 10.0, lambda: times.append(sim.now))
    process.cancel()
    process.cancel()
    sim.run(until=50.0)
    assert times == []


def test_invalid_period_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        PeriodicProcess(sim, 0.0, lambda: None)
    with pytest.raises(SimulationError):
        PeriodicProcess(sim, -5.0, lambda: None)


def test_jitter_requires_rng():
    sim = Simulator()
    with pytest.raises(SimulationError):
        PeriodicProcess(sim, 10.0, lambda: None, jitter=0.1)


def test_jitter_bounds():
    sim = Simulator(seed=3)
    with pytest.raises(SimulationError):
        PeriodicProcess(sim, 10.0, lambda: None, jitter=1.0, rng=sim.rng("j"))


def test_jittered_gaps_stay_within_band():
    sim = Simulator(seed=5)
    times = []
    PeriodicProcess(
        sim, 100.0, lambda: times.append(sim.now), jitter=0.2, rng=sim.rng("jit")
    )
    sim.run(until=5000.0)
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert gaps, "expected several ticks"
    assert all(80.0 <= gap <= 120.0 for gap in gaps)
    # jitter actually varies the gaps
    assert len(set(round(g, 6) for g in gaps)) > 1


def test_desynchronized_start_in_range():
    sim = Simulator(seed=11)
    rng = sim.rng("start")
    starts = [desynchronized_start(60.0, rng) for _ in range(200)]
    assert all(0.0 <= s < 60.0 for s in starts)
    assert max(starts) > 40.0 and min(starts) < 20.0  # actually spread out
