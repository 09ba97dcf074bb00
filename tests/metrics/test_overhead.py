"""Unit tests for message-overhead accounting."""

from repro.metrics.overhead import OverheadReport, classify


def test_classification_covers_every_protocol_kind():
    maintenance = [
        "chord.route", "chord.get_state", "chord.notify",
        "chord.ping", "gossip.shuffle", "flower.keepalive", "flower.push",
        "flower.dead_provider", "flower.promote",
        "squirrel.dead",
    ]
    query = [
        "flower.query", "flower.fetch", "squirrel.query", "squirrel.fetch",
        "squirrel.homefetch", "squirrel.store", "server.fetch",
    ]
    for kind in maintenance:
        assert classify(kind) == "maintenance", kind
    for kind in query:
        assert classify(kind) == "query", kind
    assert classify("mystery.kind") == "other"


def test_report_totals_and_ratios():
    report = OverheadReport(
        {"chord.ping": 600, "gossip.shuffle": 300, "flower.query": 50,
         "server.fetch": 50},
        queries=100,
    )
    assert report.total == 1000
    assert report.categories["maintenance"] == 900
    assert report.categories["query"] == 100
    assert report.maintenance_per_query == 9.0
    assert report.query_messages_per_query == 1.0


def test_report_zero_queries():
    report = OverheadReport({"chord.ping": 10}, queries=0)
    assert report.maintenance_per_query == 10.0
    assert report.query_messages_per_query == 0.0


def test_top_kinds_sorted_descending():
    report = OverheadReport({"a.x": 1, "b.x": 5, "c.x": 3}, queries=1)
    top = list(report.top_kinds(2))
    assert top == ["b.x", "c.x"]


def test_render_contains_sections():
    report = OverheadReport({"chord.ping": 10, "flower.query": 5}, queries=5)
    text = report.render()
    assert "message overhead" in text
    assert "heaviest message kinds" in text
    assert "maintenance messages per query" in text
