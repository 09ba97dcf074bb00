"""Unit tests for the Simulator."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator


def test_initial_state():
    sim = Simulator(seed=1)
    assert sim.now == 0.0
    assert sim.pending_events == 0
    assert sim.events_executed == 0
    assert sim.seed == 1


def test_schedule_and_run_advances_clock():
    sim = Simulator()
    times = []
    sim.schedule(10.0, lambda: times.append(sim.now))
    sim.schedule(5.0, lambda: times.append(sim.now))
    sim.run()
    assert times == [5.0, 10.0]
    assert sim.now == 10.0
    assert sim.events_executed == 2


def test_schedule_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5.0, lambda: None)


def test_run_until_is_half_open():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, lambda: fired.append("at-10"))
    sim.run(until=10.0)
    assert fired == []          # events at exactly `until` do not fire
    assert sim.now == 10.0      # but the clock lands on `until`
    sim.run(until=10.0)         # idempotent
    assert fired == []
    sim.run(until=10.1)
    assert fired == ["at-10"]


def test_run_tiles_timeline_without_gaps():
    sim = Simulator()
    ticks = []

    def tick():
        ticks.append(sim.now)
        if sim.now < 50:
            sim.schedule(10.0, tick)

    sim.schedule(10.0, tick)
    for horizon in (15.0, 35.0, 80.0):
        sim.run(until=horizon)
    assert ticks == [10.0, 20.0, 30.0, 40.0, 50.0]
    assert sim.now == 80.0


def test_run_backwards_rejected():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run(until=20.0)
    with pytest.raises(SimulationError):
        sim.run(until=5.0)


def test_nested_scheduling():
    sim = Simulator()
    order = []

    def outer():
        order.append(("outer", sim.now))
        sim.schedule(5.0, inner)

    def inner():
        order.append(("inner", sim.now))

    sim.schedule(10.0, outer)
    sim.run()
    assert order == [("outer", 10.0), ("inner", 15.0)]


def test_cancel_via_simulator():
    sim = Simulator()
    fired = []
    handle = sim.schedule(10.0, lambda: fired.append(1))
    sim.cancel(handle)
    sim.cancel(handle)  # idempotent
    sim.run()
    assert fired == []
    assert sim.pending_events == 0


def test_stop_halts_run():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
    sim.schedule(2.0, lambda: fired.append(2))
    sim.run()
    assert fired == [1]
    assert sim.pending_events == 1


def test_stop_from_a_trace_listener_halts_after_the_emitting_event():
    """A listener's ``stop()`` lets the emitting event finish, then halts
    the run before the next event, even one at the same instant."""
    sim = Simulator()
    fired = []

    def halt(_event):
        sim.stop()

    def emitter():
        sim.emit("ping")
        fired.append("emitter")

    sim.trace.subscribe_all(halt)
    sim.schedule(1.0, emitter)
    sim.schedule(1.0, fired.append, "same instant")
    sim.run()
    assert fired == ["emitter"]
    assert sim.now == 1.0
    assert sim.pending_events == 1
    sim.trace.unsubscribe_all(halt)
    sim.schedule(1.0, emitter)
    sim.run()
    assert fired == ["emitter", "same instant", "emitter"]


def test_peak_pending_is_counted_at_dispatch():
    """The peak counts the events pending before each dispatch, including
    those scheduled before the run; cancelled entries never count."""
    sim = Simulator()

    def a():
        for _ in range(4):
            sim.schedule_at(5.0, lambda: None)

    sim.schedule_at(1.0, a)
    sim.schedule_at(2.0, lambda: None)
    for handle in [sim.schedule_at(3.0, lambda: None) for _ in range(10)]:
        sim.cancel(handle)
    assert sim.peak_pending_events == 2
    sim.run()
    assert sim.peak_pending_events == 5


def test_run_not_reentrant():
    sim = Simulator()
    errors = []

    def reenter():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, reenter)
    sim.run()
    assert len(errors) == 1


def test_args_passed_to_callback():
    sim = Simulator()
    got = []
    sim.schedule(1.0, lambda a, b: got.append((a, b)), "x", 42)
    sim.run()
    assert got == [("x", 42)]


def test_rng_streams_are_deterministic_and_independent():
    sim_a = Simulator(seed=99)
    sim_b = Simulator(seed=99)
    assert [sim_a.rng("churn").random() for _ in range(5)] == [
        sim_b.rng("churn").random() for _ in range(5)
    ]
    # different stream names give different sequences
    assert sim_a.rng("workload").random() != sim_b.rng("churn").random()


def test_emit_routes_to_trace():
    sim = Simulator()
    sim.trace.record("test.kind")
    sim.schedule(7.0, lambda: sim.emit("test.kind", value=3))
    sim.run()
    events = sim.trace.events("test.kind")
    assert len(events) == 1
    assert events[0].time == 7.0
    assert events[0].payload == {"value": 3}
