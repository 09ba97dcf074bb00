"""Unit tests for content summaries."""

from repro.gossip.summaries import ExactSummary


class TestExactSummary:
    def test_add_and_contains(self):
        summary = ExactSummary()
        summary.add((1, 2))
        assert summary.contains((1, 2))
        assert not summary.contains((1, 3))

    def test_snapshot_is_independent(self):
        summary = ExactSummary([(1, 1)])
        snap = summary.snapshot()
        summary.add((2, 2))
        assert not snap.contains((2, 2))
        assert snap.contains((1, 1))

    def test_discard_unlearns_keys(self):
        summary = ExactSummary([(1, 1), (1, 2), (1, 3)])
        summary.discard([(1, 1), (1, 3), (9, 9)])  # an absent key is fine
        assert [summary.contains((1, i)) for i in (1, 2, 3)] == [False, True, False]
        assert not summary.contains((9, 9))

    def test_discard_leaves_earlier_snapshots_alone(self):
        summary = ExactSummary([(1, 1), (1, 2)])
        snap = summary.snapshot()
        summary.discard([(1, 1)])
        assert snap.contains((1, 1))  # the receiver's past does not change
        assert not summary.contains((1, 1))
        later = summary.snapshot()
        snap.discard([(1, 2)])  # ... and neither side writes through
        assert summary.contains((1, 2)) and later.contains((1, 2))
