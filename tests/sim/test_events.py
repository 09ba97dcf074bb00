"""Unit tests for the event heap, driven through the Simulator that owns it."""

import weakref

from repro.sim.engine import Simulator


def test_empty_queue():
    sim = Simulator()
    assert sim.pending_events == 0
    sim.run()
    assert sim.events_executed == 0
    assert sim.now == 0.0


def test_pop_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule_at(3.0, fired.append, "c")
    sim.schedule_at(1.0, fired.append, "a")
    sim.schedule_at(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_ties_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    for name in "abcde":
        sim.schedule_at(5.0, fired.append, name)
    sim.run()
    assert fired == list("abcde")


def test_cancelled_events_are_skipped():
    sim = Simulator()
    fired = []
    handle = sim.schedule_at(1.0, fired.append, "cancelled")
    sim.schedule_at(2.0, fired.append, "kept")
    sim.cancel(handle)
    assert sim.pending_events == 1
    sim.run()
    assert fired == ["kept"]
    assert sim.now == 2.0
    assert sim.events_executed == 1


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule_at(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert not handle.active
    assert handle.cancelled


def test_cancel_drops_callback_reference():
    """A cancelled event stops holding its callback and arguments: both
    are freed by refcount while the tombstone still sits in the heap."""

    class Owner:
        def tick(self, payload):
            pass

    owner, payload = Owner(), Owner()
    refs = [weakref.ref(owner), weakref.ref(payload)]
    sim = Simulator()
    handle = sim.schedule_at(1.0, owner.tick, payload)
    del owner, payload
    assert all(ref() is not None for ref in refs)
    handle.cancel()
    assert [ref() for ref in refs] == [None, None]
