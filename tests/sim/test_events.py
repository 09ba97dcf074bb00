"""Unit tests for the event heap."""

import weakref

import pytest

from repro.sim.events import EventQueue


def test_empty_queue():
    queue = EventQueue()
    assert len(queue) == 0
    assert not queue
    assert queue.peek_time() is None
    with pytest.raises(IndexError):
        queue.pop()


def test_pop_in_time_order():
    queue = EventQueue()
    fired = []
    queue.push(3.0, fired.append, ("c",))
    queue.push(1.0, fired.append, ("a",))
    queue.push(2.0, fired.append, ("b",))
    while queue:
        queue.pop()._fire()
    assert fired == ["a", "b", "c"]


def test_ties_fire_in_scheduling_order():
    queue = EventQueue()
    fired = []
    for name in "abcde":
        queue.push(5.0, fired.append, (name,))
    while queue:
        queue.pop()._fire()
    assert fired == list("abcde")


def test_cancelled_events_are_skipped():
    queue = EventQueue()
    fired = []
    handle = queue.push(1.0, fired.append, ("cancelled",))
    queue.push(2.0, fired.append, ("kept",))
    handle.cancel()
    queue.notify_cancelled()
    assert len(queue) == 1
    assert queue.peek_time() == 2.0
    queue.pop()._fire()
    assert fired == ["kept"]


def test_cancel_is_idempotent():
    queue = EventQueue()
    handle = queue.push(1.0, lambda: None)
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
    queue = EventQueue()
    handle = queue.push(1.0, owner.tick, (payload,))
    del owner, payload
    assert all(ref() is not None for ref in refs)
    handle.cancel()
    assert [ref() for ref in refs] == [None, None]
