"""Unit and property tests for content summaries."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CDNError
from repro.gossip.summaries import BloomSummary, ExactSummary, make_summary

keys = st.tuples(st.integers(0, 99), st.integers(0, 499))


class TestExactSummary:
    def test_add_and_contains(self):
        summary = ExactSummary()
        summary.add((1, 2))
        assert summary.contains((1, 2))
        assert not summary.contains((1, 3))
        assert len(summary) == 1

    def test_snapshot_is_independent(self):
        summary = ExactSummary([(1, 1)])
        snap = summary.snapshot()
        summary.add((2, 2))
        assert not snap.contains((2, 2))
        assert snap.contains((1, 1))

    def test_discard_unlearns_keys(self):
        summary = ExactSummary([(1, 1), (1, 2), (1, 3)])
        summary.discard([(1, 1), (1, 3), (9, 9)])  # an absent key is fine
        assert summary.keys() == {(1, 2)}
        assert len(summary) == 1

    def test_discard_leaves_earlier_snapshots_alone(self):
        summary = ExactSummary([(1, 1), (1, 2)])
        snap = summary.snapshot()
        summary.discard([(1, 1)])
        assert snap.contains((1, 1))  # the receiver's past does not change
        assert not summary.contains((1, 1))
        later = summary.snapshot()
        snap.discard([(1, 2)])  # ... and neither side writes through
        assert summary.contains((1, 2)) and later.contains((1, 2))

    def test_keys_returns_copy(self):
        summary = ExactSummary([(1, 1)])
        ks = summary.keys()
        ks.add((9, 9))
        assert not summary.contains((9, 9))


class TestBloomSummary:
    def test_parameter_validation(self):
        with pytest.raises(CDNError):
            BloomSummary(num_bits=4)
        with pytest.raises(CDNError):
            BloomSummary(num_hashes=0)

    def test_no_false_negatives(self):
        summary = BloomSummary(num_bits=4096, num_hashes=4)
        inserted = [(w, o) for w in range(5) for o in range(40)]
        for key in inserted:
            summary.add(key)
        assert all(summary.contains(key) for key in inserted)

    def test_false_positive_rate_reasonable(self):
        summary = BloomSummary(num_bits=4096, num_hashes=4)
        for o in range(100):
            summary.add((0, o))
        false_positives = sum(
            1 for o in range(10_000) if summary.contains((7, o))
        )
        # theoretical fpr at n=100, m=4096, k=4 is ~0.00008; allow slack
        assert false_positives < 100

    def test_expected_fpr_monotone(self):
        summary = BloomSummary(num_bits=1024, num_hashes=3)
        assert summary.expected_fpr(10) < summary.expected_fpr(100) < 1.0

    def test_snapshot_is_independent(self):
        summary = BloomSummary()
        summary.add((1, 1))
        snap = summary.snapshot()
        summary.add((2, 2))
        assert snap.contains((1, 1))
        assert not snap.contains((2, 2))
        assert len(snap) == 1

    @given(inserted=st.sets(keys, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_property_membership_superset(self, inserted):
        """Bloom `contains` must be a superset of the true set."""
        summary = BloomSummary(num_bits=2048, num_hashes=4)
        for key in inserted:
            summary.add(key)
        assert all(summary.contains(key) for key in inserted)


    def test_cannot_unlearn(self):
        # FlowerPeer._on_evicted picks discard-or-rebuild by this.
        assert not hasattr(BloomSummary(), "discard")


def test_make_summary_factory():
    assert isinstance(make_summary("exact"), ExactSummary)
    assert isinstance(make_summary("bloom"), BloomSummary)
    with pytest.raises(CDNError):
        make_summary("magic")
