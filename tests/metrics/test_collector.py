"""Unit tests for the metrics collector."""

import pickle
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CDNError
from repro.metrics.collector import (
    ALL_OUTCOMES,
    FAILED_OUTCOMES,
    HIT_OUTCOMES,
    MISS_OUTCOMES,
    SERVED_OUTCOMES,
    SHED_OUTCOMES,
    MetricsCollector,
    QueryRecord,
    RecordColumns,
)


def rec(outcome, time=1.0, website=0, locality=0, lookup=100.0, transfer=50.0, hops=3):
    return QueryRecord(
        time=time,
        website=website,
        object_key=(website, 1),
        locality=locality,
        outcome=outcome,
        lookup_latency_ms=lookup,
        transfer_ms=transfer,
        hops=hops,
    )


def feed(collector, row):
    """Hand one row to the collector's one entry point."""
    collector.record(
        row.time,
        row.object_key,
        row.locality,
        row.outcome,
        row.lookup_latency_ms,
        row.transfer_ms,
        row.hops,
    )


def test_outcome_taxonomy_is_partition():
    assert HIT_OUTCOMES & MISS_OUTCOMES == frozenset()
    assert HIT_OUTCOMES & FAILED_OUTCOMES == frozenset()
    assert MISS_OUTCOMES & FAILED_OUTCOMES == frozenset()
    assert SHED_OUTCOMES & (HIT_OUTCOMES | MISS_OUTCOMES | FAILED_OUTCOMES) == frozenset()
    assert HIT_OUTCOMES | MISS_OUTCOMES == SERVED_OUTCOMES
    assert SERVED_OUTCOMES | FAILED_OUTCOMES | SHED_OUTCOMES == ALL_OUTCOMES


def test_failed_outcomes_excluded_from_service_stats():
    """Failed queries count as issued work but never as service: they are
    invisible to the hit ratio and the latency projections."""
    collector = MetricsCollector()
    feed(collector, rec("hit_directory"))
    feed(collector, rec("miss_server"))
    feed(collector, rec("failed_crash", lookup=9999.0, transfer=0.0))
    feed(collector, rec("failed_unreachable", lookup=9999.0, transfer=0.0))
    assert len(collector) == 4
    assert sum(collector.outcome_count(o) for o in FAILED_OUTCOMES) == 2
    assert collector.hit_ratio() == 0.5  # hits / (hits + misses)
    assert 9999.0 not in collector.lookup_latencies(hits_only=False)
    assert collector.outcome_count("failed_crash") == 1


def test_unknown_outcome_rejected():
    collector = MetricsCollector()
    with pytest.raises(CDNError):
        feed(collector, rec("hit_magic"))


def test_hit_ratio():
    collector = MetricsCollector()
    assert collector.hit_ratio() == 0.0
    for outcome in ["hit_summary", "hit_directory", "miss_server", "miss_failed"]:
        feed(collector, rec(outcome))
    assert collector.hit_ratio() == 0.5
    assert collector.hits == 2
    assert collector.misses == 2
    assert len(collector) == 4


def test_outcome_count():
    collector = MetricsCollector()
    feed(collector, rec("hit_summary"))
    feed(collector, rec("hit_summary"))
    assert collector.outcome_count("hit_summary") == 2
    assert collector.outcome_count("miss_server") == 0


def test_means():
    collector = MetricsCollector()
    feed(collector, rec("hit_summary", lookup=100.0, transfer=10.0))
    feed(collector, rec("miss_server", lookup=300.0, transfer=30.0))
    assert collector.mean_lookup_latency_ms() == 200.0
    assert collector.mean_transfer_ms() == 20.0
    assert collector.mean_lookup_latency_ms(hits_only=True) == 100.0
    assert collector.mean_transfer_ms(hits_only=True) == 10.0


def test_means_empty():
    collector = MetricsCollector()
    assert collector.mean_lookup_latency_ms() == 0.0
    assert collector.mean_transfer_ms() == 0.0


def test_projections():
    collector = MetricsCollector()
    feed(collector, rec("hit_summary", lookup=1.0))
    feed(collector, rec("miss_server", lookup=2.0))
    assert collector.lookup_latencies() == [1.0, 2.0]
    assert collector.lookup_latencies(hits_only=True) == [1.0]
    assert collector.transfer_distances() == [50.0, 50.0]


# ---------------------------------------------------------------------------
# Column storage: oracle, failure atomicity and the memory it is for
# ---------------------------------------------------------------------------

class ListReference:
    """One ``QueryRecord`` per query in a plain list, scanned row by row.

    Kept independent of the column store on purpose (set membership on the
    outcome names, no codes, no masks): it is what the columns must be
    indistinguishable from.
    """

    def __init__(self):
        self.records = []

    def count(self, outcomes):
        return sum(1 for r in self.records if r.outcome in outcomes)

    def hit_ratio(self):
        served = self.count(SERVED_OUTCOMES)
        return self.count(HIT_OUTCOMES) / served if served else 0.0

    def project(self, field, hits_only):
        wanted = HIT_OUTCOMES if hits_only else SERVED_OUTCOMES
        return [getattr(r, field) for r in self.records if r.outcome in wanted]


_INT32 = 2**31 - 1
_finite = st.floats(allow_nan=False, allow_infinity=False)
_website = st.integers(min_value=0, max_value=3)
_locality = st.integers(min_value=-1, max_value=2)
_outcome = st.sampled_from(sorted(ALL_OUTCOMES))
_rows = st.lists(
    st.builds(
        lambda time, website, index, locality, outcome, lookup, transfer, hops: (
            QueryRecord(
                time, website, (website, index), locality, outcome, lookup, transfer, hops
            )
        ),
        _finite,
        _website,
        st.integers(min_value=0, max_value=_INT32),
        _locality,
        _outcome,
        _finite,
        _finite,
        st.integers(min_value=0, max_value=_INT32),
    ),
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(_rows)
def test_columns_match_a_plain_list(rows):
    collector = MetricsCollector()
    reference = ListReference()
    for row in rows:
        feed(collector, row)
        reference.records.append(row)
    records = collector.records
    n = len(rows)

    assert len(collector) == len(records) == n
    assert list(records) == reference.records
    assert records == reference.records and records == tuple(reference.records)
    assert all(type(row) is QueryRecord for row in records)
    if rows:
        assert records != reference.records[1:]
        assert records != [rows[0]._replace(hops=rows[0].hops ^ 1)] + rows[1:]

    for hits_only in (False, True):
        assert collector.lookup_latencies(hits_only) == reference.project(
            "lookup_latency_ms", hits_only
        )
        assert collector.transfer_distances(hits_only) == reference.project(
            "transfer_ms", hits_only
        )
    assert collector.hit_ratio() == reference.hit_ratio()
    assert collector.hits == reference.count(HIT_OUTCOMES)
    assert collector.misses == reference.count(MISS_OUTCOMES)
    assert collector.sheds == reference.count(SHED_OUTCOMES)
    for outcome in ALL_OUTCOMES:
        assert collector.outcome_count(outcome) == reference.count({outcome})
    assert collector.outcome_counts() == {
        outcome: reference.count({outcome})
        for outcome in sorted({r.outcome for r in rows})
    }
    assert list(collector.outcome_counts()) == sorted({r.outcome for r in rows})

    shipped = pickle.loads(pickle.dumps(records))
    assert shipped == records and list(shipped) == reference.records


@pytest.mark.parametrize(
    "field, value",
    [
        ("time", None),  # the first column: nothing is written yet
        ("object_key", (0, 2**31)),
        ("locality", 1.5),
        ("hops", 2**31),  # the last column: seven are written already
        ("hops", -(2**31) - 1),
    ],
)
def test_a_value_its_column_cannot_hold_raises_and_leaves_no_trace(field, value):
    collector = MetricsCollector()
    feed(collector, rec("hit_summary"))
    with pytest.raises(CDNError):
        feed(collector, rec("miss_server")._replace(**{field: value}))
    with pytest.raises(CDNError):
        feed(collector, rec("hit_magic"))
    assert {len(column) for column in collector.records.columns()} == {1}
    assert collector.misses == 0 and len(collector) == 1
    feed(collector, rec("miss_server", lookup=7.0))
    assert collector.records == [rec("hit_summary"), rec("miss_server", lookup=7.0)]


def test_a_record_is_stored_in_at_most_48_bytes():
    columns = RecordColumns().columns()
    assert len(columns) == len(QueryRecord._fields)
    assert sum(column.itemsize for column in columns) <= 48


def test_50_000_records_grow_the_collector_by_under_4_mb():
    """One tuple per query (three boxed floats and a key tuple beside it)
    costs about 215 bytes, 10 MB here; the columns cost 41."""
    collector = MetricsCollector()
    tracemalloc.start()
    try:
        before, __ = tracemalloc.get_traced_memory()
        for i in range(50_000):
            collector.record(
                i * 1.5, (i % 7, i % 400), i % 3, "hit_directory", i * 0.25, i * 0.125, i % 9
            )
        after, __ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(collector) == 50_000
    assert after - before < 4 * 1024 * 1024
