"""Tests for the bounded-cache (LRU replacement) extension.

The paper assumes unbounded caches (section 6.1 and footnote 1); this
extension bounds them and replaces least-recently-used objects, with all
the protocol consequences: summaries rebuilt, directories unlearning via
the next push, evicted objects re-queryable.
"""

import pytest

from repro.cdn.storage import ContentStore
from repro.errors import CDNError
from repro.sim.clock import seconds

from tests.cdn.conftest import CdnWorld, make_params


class TestBoundedStore:
    def test_capacity_validated(self):
        with pytest.raises(CDNError):
            ContentStore(capacity=0)

    def test_unbounded_never_evicts(self):
        store = ContentStore()
        for index in range(1000):
            store.add_with_evictions((0, index))
        assert len(store) == 1000
        assert store.evictions == 0

    def test_lru_eviction_order(self):
        store = ContentStore(capacity=3)
        for index in (1, 2, 3):
            store.add_with_evictions((0, index))
        was_new, evicted = store.add_with_evictions((0, 4))
        assert was_new and evicted == [(0, 1)]
        assert (0, 1) not in store and (0, 4) in store

    def test_touch_refreshes_recency(self):
        store = ContentStore(capacity=3)
        for index in (1, 2, 3):
            store.add_with_evictions((0, index))
        store.touch((0, 1))           # 1 becomes most recent
        __, evicted = store.add_with_evictions((0, 4))
        assert evicted == [(0, 2)]
        assert (0, 1) in store

    def test_re_adding_refreshes_recency(self):
        store = ContentStore(capacity=2)
        store.add_with_evictions((0, 1))
        store.add_with_evictions((0, 2))
        assert store.add_with_evictions((0, 1)) == (False, [])  # refreshed
        __, evicted = store.add_with_evictions((0, 3))
        assert evicted == [(0, 2)]

    def test_evictions_count_as_push_changes(self):
        store = ContentStore(capacity=2)
        store.add_with_evictions((0, 1))
        store.add_with_evictions((0, 2))
        store.mark_pushed()
        store.add_with_evictions((0, 3))  # 1 insertion + 1 eviction: 2 changes / 2
        assert store.change_fraction() == 1.0
        assert store.should_push(0.5)

    def test_initial_overflow_trimmed(self):
        store = ContentStore([(0, i) for i in range(5)], capacity=3)
        assert len(store) == 3


class TestStreamForget:
    def test_forget_allows_requery(self):
        from repro.workload.queries import QueryStream
        from repro.workload.zipf import ZipfSampler
        import random

        stream = QueryStream(0, ZipfSampler(5), random.Random(1))
        drawn = {stream.next_object()[1] for __ in range(5)}
        assert stream.exhausted
        stream.forget({drawn.pop()})
        assert not stream.exhausted
        assert stream.next_object() is not None


class TestFlowerWithBoundedCache:
    def make_world(self, capacity=3):
        return CdnWorld(params=make_params(peer_cache_capacity=capacity))

    def test_peer_cache_bounded(self):
        world = self.make_world(capacity=3)
        peer = world.arrive(website=0)
        for index in range(1, 7):
            world.query(peer, (0, index))
        assert len(peer.store) == 3
        assert peer.store.evictions == 3

    def test_summary_rebuilt_after_eviction(self):
        world = self.make_world(capacity=2)
        peer = world.arrive(website=0)
        world.query(peer, (0, 1))
        world.query(peer, (0, 2))
        world.query(peer, (0, 3))  # evicts (0, 1)
        assert not peer.summary.contains((0, 1))
        assert peer.summary.contains((0, 3))

    def test_eviction_leaves_gossiped_snapshots_alone(self):
        world = self.make_world(capacity=2)
        peer = world.arrive(website=0)
        world.query(peer, (0, 1))
        world.query(peer, (0, 2))
        gossiped = peer._gossip_data()["summary"]
        world.query(peer, (0, 3))  # evicts (0, 1)
        assert gossiped.contains((0, 1)) and not gossiped.contains((0, 3))
        assert not peer.summary.contains((0, 1))

    def test_summary_tracks_the_store_through_evictions(self):
        world = CdnWorld(params=make_params(peer_cache_capacity=3))
        peer = world.arrive(website=0)
        for index in (1, 2, 3, 1, 4, 5, 2, 6):
            world.query(peer, (0, index))
            held = peer.store.keys()  # after _finish_query
            for key in [(0, i) for i in range(1, 7)]:
                assert peer.summary.contains(key) == (key in held)

    def test_directory_unlearns_evicted_objects(self):
        world = self.make_world(capacity=2)
        peer = world.arrive(website=0)
        for index in (1, 2, 3, 4):
            world.query(peer, (0, index))
        world.run(seconds(30))  # pushes propagate
        directory = world.directory_of(0, peer.locality)
        assert peer.address not in directory.directory.providers_of((0, 1))
        held = peer.store.keys()
        for key in held:
            assert directory.directory.providers_of(key) == {peer.address}

    def test_experiment_runs_with_bounded_caches(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import run_experiment

        config = ExperimentConfig.scaled(
            population=60,
            duration_hours=1.5,
            num_websites=4,
            num_active_websites=2,
            num_localities=2,
            objects_per_website=30,
            peer_cache_capacity=5,
        )
        result = run_experiment("flower", config, seed=17)
        assert result.queries > 0
