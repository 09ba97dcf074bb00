"""Unit tests for the trace recorder, fed through ``Simulator.emit``."""

from repro.sim.engine import Simulator
from repro.sim.trace import StreamFingerprint


def emit(sim, time, kind, **payload):
    sim.now = time
    sim.emit(kind, **payload)


def test_counters_always_update():
    sim = Simulator()
    trace = sim.trace
    emit(sim, 1.0, "a")
    emit(sim, 2.0, "a")
    emit(sim, 3.0, "b")
    assert trace.count("a") == 2
    assert trace.count("b") == 1
    assert trace.count("missing") == 0


def test_records_only_subscribed_kinds():
    sim = Simulator()
    trace = sim.trace
    trace.record("keep")
    emit(sim, 1.0, "keep", value=1)
    emit(sim, 2.0, "drop", value=2)
    assert len(trace.events("keep")) == 1
    assert trace.events("drop") == []
    assert trace.count("drop") == 1  # still counted


def test_recorded_event_contents():
    sim = Simulator()
    trace = sim.trace
    trace.record("x")
    emit(sim, 5.5, "x", a=1, b="two")
    event = trace.events("x")[0]
    assert event.time == 5.5
    assert event.kind == "x"
    assert event.payload == {"a": 1, "b": "two"}


def test_listeners_invoked_in_order():
    sim = Simulator()
    trace = sim.trace
    seen = []
    trace.subscribe("k", lambda e: seen.append(("first", e.payload["n"])))
    trace.subscribe("k", lambda e: seen.append(("second", e.payload["n"])))
    emit(sim, 1.0, "k", n=7)
    assert seen == [("first", 7), ("second", 7)]


def test_listener_without_record_does_not_store():
    sim = Simulator()
    trace = sim.trace
    seen = []
    trace.subscribe("k", lambda e: seen.append(e))
    emit(sim, 1.0, "k")
    assert len(seen) == 1
    assert trace.events("k") == []


def test_clear_single_kind():
    sim = Simulator()
    trace = sim.trace
    trace.record("a", "b")
    emit(sim, 1.0, "a")
    emit(sim, 1.0, "b")
    trace.clear("a")
    assert trace.count("a") == 0
    assert trace.events("a") == []
    assert trace.count("b") == 1


def test_clear_all():
    sim = Simulator()
    trace = sim.trace
    trace.record("a")
    emit(sim, 1.0, "a")
    trace.clear()
    assert trace.count("a") == 0
    assert trace.events("a") == []


def test_stream_fingerprint_pins_order_and_content_not_keyword_order():
    def digest(*events):
        sim = Simulator()
        fingerprint = StreamFingerprint(sim.trace)
        for time, kind, payload in events:
            emit(sim, time, kind, **payload)
        return fingerprint.hexdigest()

    a = (1.0, "x", {"p": 1, "q": 2})
    b = (2.0, "y", {})
    assert digest(a, b) == digest((1.0, "x", {"q": 2, "p": 1}), b)
    assert digest(a, b) != digest(b, a)
    assert digest(a, b) != digest((1.0, "x", {"p": 1, "q": 3}), b)
    assert digest(a, b) != digest(a)
