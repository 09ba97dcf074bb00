"""Unit tests for the trace recorder."""

from repro.sim.trace import StreamFingerprint, TraceRecorder


def test_counters_always_update():
    trace = TraceRecorder()
    trace.emit(1.0, "a")
    trace.emit(2.0, "a")
    trace.emit(3.0, "b")
    assert trace.count("a") == 2
    assert trace.count("b") == 1
    assert trace.count("missing") == 0


def test_records_only_subscribed_kinds():
    trace = TraceRecorder()
    trace.record("keep")
    trace.emit(1.0, "keep", value=1)
    trace.emit(2.0, "drop", value=2)
    assert len(trace.events("keep")) == 1
    assert trace.events("drop") == []
    assert trace.count("drop") == 1  # still counted


def test_recorded_event_contents():
    trace = TraceRecorder()
    trace.record("x")
    trace.emit(5.5, "x", a=1, b="two")
    event = trace.events("x")[0]
    assert event.time == 5.5
    assert event.kind == "x"
    assert event.payload == {"a": 1, "b": "two"}


def test_listeners_invoked_in_order():
    trace = TraceRecorder()
    seen = []
    trace.subscribe("k", lambda e: seen.append(("first", e.payload["n"])))
    trace.subscribe("k", lambda e: seen.append(("second", e.payload["n"])))
    trace.emit(1.0, "k", n=7)
    assert seen == [("first", 7), ("second", 7)]


def test_listener_without_record_does_not_store():
    trace = TraceRecorder()
    seen = []
    trace.subscribe("k", lambda e: seen.append(e))
    trace.emit(1.0, "k")
    assert len(seen) == 1
    assert trace.events("k") == []


def test_clear_single_kind():
    trace = TraceRecorder()
    trace.record("a", "b")
    trace.emit(1.0, "a")
    trace.emit(1.0, "b")
    trace.clear("a")
    assert trace.count("a") == 0
    assert trace.events("a") == []
    assert trace.count("b") == 1


def test_clear_all():
    trace = TraceRecorder()
    trace.record("a")
    trace.emit(1.0, "a")
    trace.clear()
    assert trace.count("a") == 0
    assert trace.events("a") == []


def test_stream_fingerprint_pins_order_and_content_not_keyword_order():
    def digest(*events):
        trace = TraceRecorder()
        fingerprint = StreamFingerprint(trace)
        for time, kind, payload in events:
            trace.emit(time, kind, **payload)
        return fingerprint.hexdigest()

    a = (1.0, "x", {"p": 1, "q": 2})
    b = (2.0, "y", {})
    assert digest(a, b) == digest((1.0, "x", {"q": 2, "p": 1}), b)
    assert digest(a, b) != digest(b, a)
    assert digest(a, b) != digest((1.0, "x", {"p": 1, "q": 3}), b)
    assert digest(a, b) != digest(a)
