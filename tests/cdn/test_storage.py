"""Unit tests for the content store and push-threshold accounting."""

import pytest

from repro.cdn.storage import ContentStore
from repro.errors import CDNError


def test_empty_store():
    store = ContentStore()
    assert len(store) == 0
    assert (0, 1) not in store
    assert store.change_fraction() == 0.0
    assert not store.should_push(0.5)


def test_add_and_contains():
    store = ContentStore()
    assert store.add_with_evictions((0, 1)) == (True, [])
    assert (0, 1) in store
    assert store.add_with_evictions((0, 1)) == (False, [])  # duplicate: no change
    assert len(store) == 1


def test_initial_content_counts_as_changes():
    store = ContentStore([(0, 1), (0, 2)])
    assert len(store) == 2
    assert store.change_fraction() == 2.0  # two changes, nothing pushed yet
    assert store.should_push(0.5)


def test_keys_returns_copy():
    store = ContentStore([(0, 1)])
    keys = store.keys()
    keys.add((9, 9))
    assert (9, 9) not in store


def test_held_indexes_filters_by_website():
    store = ContentStore([(0, 1), (0, 3), (1, 2)])
    assert store.held_indexes(0) == {1, 3}
    assert store.held_indexes(1) == {2}
    assert store.held_indexes(5) == set()


def test_first_object_always_triggers_push():
    store = ContentStore()
    store.add_with_evictions((0, 1))
    assert store.change_fraction() == 1.0
    assert store.should_push(0.5)


def test_push_threshold_cycle():
    """Paper section 5.1: push when changes reach 50% of the pushed size."""
    store = ContentStore()
    store.add_with_evictions((0, 1))
    store.add_with_evictions((0, 2))
    store.mark_pushed()  # directory saw 2 objects
    assert not store.should_push(0.5)
    store.add_with_evictions((0, 3))  # 1 change / 2 pushed = 0.5 -> push
    assert store.change_fraction() == 0.5
    assert store.should_push(0.5)
    store.mark_pushed()  # directory saw 3
    store.add_with_evictions((0, 4))  # 1/3 < 0.5
    assert not store.should_push(0.5)
    store.add_with_evictions((0, 5))  # 2/3 >= 0.5
    assert store.should_push(0.5)


def test_mark_pushed_resets_changes():
    store = ContentStore([(0, 1)])
    store.mark_pushed()
    assert store.change_fraction() == 0.0
    assert not store.should_push(0.5)


# ------------------------------------------------- capacity / LRU eviction


def test_capacity_must_be_positive_or_none():
    with pytest.raises(CDNError):
        ContentStore(capacity=0)
    with pytest.raises(CDNError):
        ContentStore(capacity=-3)


def test_initial_content_beyond_capacity_is_trimmed_oldest_first():
    store = ContentStore([(0, 1), (0, 2), (0, 3)], capacity=2)
    assert store.keys() == {(0, 2), (0, 3)}
    assert len(store) == 2


def test_add_beyond_capacity_evicts_lru():
    store = ContentStore(capacity=2)
    store.add_with_evictions((0, 1))
    store.add_with_evictions((0, 2))
    was_new, evicted = store.add_with_evictions((0, 3))
    assert was_new
    assert evicted == [(0, 1)]
    assert store.evictions == 1
    assert (0, 1) not in store


def test_touch_and_readd_refresh_recency():
    store = ContentStore(capacity=2)
    store.add_with_evictions((0, 1))
    store.add_with_evictions((0, 2))
    store.touch((0, 1))  # (0, 2) becomes the LRU victim
    __, evicted = store.add_with_evictions((0, 3))
    assert evicted == [(0, 2)]
    # Re-adding a present key is not a change but does refresh recency.
    was_new, evicted = store.add_with_evictions((0, 1))
    assert not was_new and evicted == []
    __, evicted = store.add_with_evictions((0, 4))
    assert evicted == [(0, 3)]


def test_touch_of_absent_key_is_a_noop():
    store = ContentStore(capacity=1)
    store.touch((9, 9))
    assert len(store) == 0


def test_evicted_key_can_be_readded_and_counts_as_new():
    store = ContentStore(capacity=1)
    store.add_with_evictions((0, 1))
    store.add_with_evictions((0, 2))  # evicts (0, 1)
    was_new, evicted = store.add_with_evictions((0, 1))
    assert was_new
    assert evicted == [(0, 2)]
    assert store.evictions == 2
    assert store.keys() == {(0, 1)}


def test_evictions_count_as_changes_for_the_push_threshold():
    store = ContentStore(capacity=2)
    store.add_with_evictions((0, 1))
    store.add_with_evictions((0, 2))
    store.mark_pushed()  # directory saw 2 objects
    assert not store.should_push(0.5)
    # One add at capacity = one insertion + one eviction = 2 changes
    # against a pushed size of 2 -> fraction 1.0, over threshold.
    store.add_with_evictions((0, 3))
    assert store.change_fraction() == 1.0
    assert store.should_push(0.5)
    store.mark_pushed()
    assert store.change_fraction() == 0.0


def test_full_cycle_thrash_never_exceeds_capacity():
    store = ContentStore(capacity=3)
    for index in range(20):
        store.add_with_evictions((0, index))
        assert len(store) <= 3
    assert store.evictions == 17
    # The survivors are exactly the three most recent insertions.
    assert store.keys() == {(0, 17), (0, 18), (0, 19)}


def test_reset_push_state_counts_current_content_only():
    store = ContentStore(capacity=2)
    for index in range(5):
        store.add_with_evictions((0, index))
    store.reset_push_state()
    # A fresh directory only needs the 2 surviving keys, not the history
    # of evictions.
    assert store.change_fraction() == 2.0
    assert store.should_push(0.5)
