"""Tests for the keyword-search extension (paper section 7 future work)."""

import pytest

from repro.cdn.flower.search import (
    KeywordSearchEngine,
    KeywordSpace,
    SearchAvailabilityTracker,
)
from repro.cdn.flower.petal import DIR_FAILURE_THRESHOLD
from repro.cdn.flower.replication import ANTI_ENTROPY_ROUNDS
from repro.cdn.flower.search_client import staleness_bound_ms
from repro.cdn.flower.system import FlowerSystem
from repro.errors import CDNError
from repro.sim.clock import minutes, seconds

from tests.cdn.conftest import CdnWorld, make_params


class TestKeywordSpace:
    def test_validation(self):
        with pytest.raises(CDNError):
            KeywordSpace(num_keywords=0)
        with pytest.raises(CDNError):
            KeywordSpace(min_keywords=0)
        with pytest.raises(CDNError):
            KeywordSpace(min_keywords=3, max_keywords=2)

    def test_keywords_deterministic(self):
        space = KeywordSpace(num_keywords=30)
        assert space.keywords_of((0, 5)) == space.keywords_of((0, 5))
        assert KeywordSpace(30).keywords_of((0, 5)) == space.keywords_of((0, 5))

    def test_keyword_count_in_bounds(self):
        space = KeywordSpace(num_keywords=30, min_keywords=1, max_keywords=3)
        for ws in range(3):
            for index in range(50):
                keywords = space.keywords_of((ws, index))
                assert 1 <= len(keywords) <= 3
                assert keywords <= set(space.all_keywords())

    def test_matches(self):
        space = KeywordSpace(20)
        key = (1, 7)
        keyword = next(iter(space.keywords_of(key)))
        assert space.matches(key, keyword)
        non_keywords = set(space.all_keywords()) - space.keywords_of(key)
        assert not space.matches(key, next(iter(non_keywords)))

    def test_golden_keyword_sets(self):
        """The memoized derivation pins the exact historical sets: any
        drift here silently re-shards every posting list."""
        space = KeywordSpace(num_keywords=8)
        golden = {
            (0, 0): {"kw3", "kw4"},
            (0, 5): {"kw7"},
            (1, 7): {"kw1", "kw5", "kw7"},
            (3, 11): {"kw1", "kw3"},
            (7, 42): {"kw3"},
        }
        for key, expected in golden.items():
            assert set(space.keywords_of(key)) == expected
        wide = KeywordSpace(num_keywords=30, min_keywords=1, max_keywords=3)
        assert set(wide.keywords_of((0, 5))) == {"kw29"}
        assert set(wide.keywords_of((2, 19))) == {"kw4", "kw12", "kw17"}

    def test_memoization_returns_identical_sets(self):
        space = KeywordSpace(num_keywords=8)
        first = space.keywords_of((0, 5))
        # The cached hit is the *same* frozenset, not a recomputation.
        assert space.keywords_of((0, 5)) is first
        # A fresh space recomputes to an equal value (cache is invisible).
        assert KeywordSpace(num_keywords=8).keywords_of((0, 5)) == first

    def test_cache_eviction_keeps_answers_stable(self):
        space = KeywordSpace(num_keywords=4)
        space._cache_capacity = 8  # force evictions at toy scale
        baseline = {
            (ws, i): space.keywords_of((ws, i))
            for ws in range(4)
            for i in range(16)
        }
        assert len(space._cache) <= 8
        for key, expected in baseline.items():
            assert space.keywords_of(key) == expected


class TestEngineOverIndex:
    def test_search_index_finds_providers(self):
        space = KeywordSpace(10)
        engine = KeywordSearchEngine(space)
        key = (0, 3)
        keyword = next(iter(space.keywords_of(key)))
        matches = engine.search_index({key: {42}}, set(), 99, keyword)
        assert (key, 42) in matches

    def test_own_store_included(self):
        space = KeywordSpace(10)
        engine = KeywordSearchEngine(space)
        key = (0, 3)
        keyword = next(iter(space.keywords_of(key)))
        matches = engine.search_index({}, {key}, 99, keyword)
        assert matches == [(key, 99)]

    def test_max_results_cap(self):
        space = KeywordSpace(1)  # every object matches kw0
        engine = KeywordSearchEngine(space, max_results=3)
        index = {(0, i): {i} for i in range(10)}
        assert len(engine.search_index(index, set(), 99, "kw0")) == 3

    def test_invalid_max_results(self):
        with pytest.raises(CDNError):
            KeywordSearchEngine(KeywordSpace(5), max_results=0)


class TestPetalSearch:
    def make_search_world(self):
        world = CdnWorld()
        world.system.search_engine = KeywordSearchEngine(
            KeywordSpace(num_keywords=8)
        )
        return world

    def test_search_requires_engine(self):
        world = CdnWorld()
        peer = world.arrive(website=0)
        with pytest.raises(CDNError):
            peer.search("kw0", lambda matches: None)

    def test_content_peer_searches_via_directory(self):
        world = self.make_search_world()
        space = world.system.search_engine.space
        holder = world.arrive(website=0, locality=0)
        world.query(holder, (0, 5))
        world.run(seconds(10))  # push lands in the directory-index
        querier = world.arrive(website=0, locality=0)
        querier.locality = holder.locality
        world.query(querier, (0, 9))  # join the petal
        keyword = next(iter(space.keywords_of((0, 5))))
        results = []
        querier.search(keyword, results.append)
        world.run(seconds(10))
        assert results, "search reply missing"
        assert any(key == (0, 5) for key, __ in results[0])

    def test_directory_answers_locally(self):
        world = self.make_search_world()
        space = world.system.search_engine.space
        directory = world.directory_of(0, 0)
        directory.store.add_with_evictions((0, 5))
        keyword = next(iter(space.keywords_of((0, 5))))
        results = []
        directory.search(keyword, results.append)
        assert results[0] == [((0, 5), directory.address)]

    def test_unregistered_peer_gets_nothing(self):
        world = self.make_search_world()
        peer = world.arrive(website=0)
        results = []
        peer.search("kw0", results.append)
        assert results == [[]]

    def test_search_of_unknown_keyword_is_empty(self):
        world = self.make_search_world()
        holder = world.arrive(website=0, locality=0)
        world.query(holder, (0, 5))
        world.run(seconds(10))
        space = world.system.search_engine.space
        absent = set(space.all_keywords()) - space.keywords_of((0, 5))
        directory = world.directory_of(0, 0)
        results = []
        directory.search(next(iter(absent)), results.append)
        matched_keys = {key for key, __ in results[0]}
        assert (0, 5) not in matched_keys


# ---------------------------------------------------------------------------
# Query failover plane (section 5.4)
# ---------------------------------------------------------------------------


def make_failover_world(**overrides):
    world = CdnWorld(
        FlowerSystem, params=make_params(directory_replication_k=2, **overrides)
    )
    world.system.search_engine = KeywordSearchEngine(
        KeywordSpace(num_keywords=8)
    )
    return world


class TestStalenessBound:
    def test_bound_tracks_protocol_periods(self):
        def bound(gossip_period_min):
            params = make_params(gossip_period_min=gossip_period_min)
            system = CdnWorld(FlowerSystem, params=params).system
            return staleness_bound_ms(system.gossip_period_ms)

        assert bound(20.0) == 2 * bound(10.0)
        assert bound(10.0) == minutes(10) * (
            ANTI_ENTROPY_ROUNDS + DIR_FAILURE_THRESHOLD + 2
        )


class TestSearchFailover:
    def test_failover_serves_replica_when_directory_dies(self):
        world = make_failover_world()
        space = world.system.search_engine.space
        client = world.arrive(website=0, locality=0)
        directory = world.directory_of(0, 0)
        world.query(client, (0, 5))
        world.run(seconds(10))
        assert directory.directory.has_member(client.address)
        # Two keepalive/sync periods: replicas acked, hint harvested.
        world.run(minutes(25))
        assert client._search_position is not None

        world.sim.trace.record("flower.search_done")
        directory.crash()
        keyword = next(iter(space.keywords_of((0, 5))))
        results = []
        client.search(keyword, results.append)
        world.run(minutes(1))  # RPC timeout + retries + failover chain

        assert results, "failed-over search never completed"
        assert any(key == (0, 5) for key, __ in results[0])
        done = world.sim.trace.events("flower.search_done")
        assert len(done) == 1
        event = done[0]
        assert event.payload["source"] in ("replica", "takeover")
        bound = staleness_bound_ms(world.system.gossip_period_ms)
        assert 0.0 <= event.payload["staleness_ms"] <= bound

    def test_member_without_a_plan_reaches_the_replica_over_d_ring(self):
        """A member that never heard a failover plan and knows no
        petal-mate (it followed the slot after the holder's last reply to
        it) still reaches a replica once its directory dies: the spent
        chain ends with a D-ring lookup of the slot, whose ring successor
        holds a replica."""
        world = make_failover_world()
        space = world.system.search_engine.space
        holder = world.arrive(website=0, locality=0)
        directory = world.directory_of(0, 0)
        world.query(holder, (0, 5))
        client = world.arrive(website=0, locality=0)
        world.query(client, (0, 9))
        world.run(minutes(25))  # replicas synced and acknowledged
        position = client.dir_info.position_id
        assert client.replica_store.get(position) is None  # not the heir
        client._search_position = None
        client._search_replicas = []
        client._search_members = []
        for contact in list(client.view.contacts()):
            client.view.remove(contact.address)

        directory.crash()
        world.run(minutes(2))  # D-ring drops the dead holder
        assert client.dir_info.address == directory.address
        world.sim.trace.record("flower.search_done")
        keyword = next(iter(space.keywords_of((0, 5))))
        results = []
        client.search(keyword, results.append)
        world.run(minutes(1))

        assert any(key == (0, 5) for key, __ in results[0])
        (done,) = world.sim.trace.events("flower.search_done")
        assert done.payload["source"] in ("replica", "takeover")

    def test_search_without_failover_state_reports_outage(self):
        """k=0: a dead directory means a sustained, *accounted* outage."""
        params = make_params(directory_replication_k=0)
        world = CdnWorld(FlowerSystem, params=params)
        world.system.search_engine = KeywordSearchEngine(
            KeywordSpace(num_keywords=8)
        )
        space = world.system.search_engine.space
        client = world.arrive(website=0, locality=0)
        directory = world.directory_of(0, 0)
        world.query(client, (0, 5))
        world.run(minutes(25))  # keepalives harvested the (empty) hint

        world.sim.trace.record("flower.search_done")
        directory.crash()
        keyword = next(iter(space.keywords_of((0, 5))))
        results = []
        client.search(keyword, results.append)
        world.run(minutes(1))

        assert results == [[]]
        done = world.sim.trace.events("flower.search_done")
        assert len(done) == 1
        assert done[0].payload["source"] == "none"

    def test_directory_answer_is_source_directory(self):
        world = make_failover_world()
        space = world.system.search_engine.space
        client = world.arrive(website=0, locality=0)
        world.query(client, (0, 5))
        world.run(seconds(10))
        world.sim.trace.record("flower.search_done")
        keyword = next(iter(space.keywords_of((0, 5))))
        results = []
        client.search(keyword, results.append)
        world.run(seconds(10))
        done = world.sim.trace.events("flower.search_done")
        assert [e.payload["source"] for e in done] == ["directory"]
        assert done[0].payload["staleness_ms"] == 0.0


class TestAvailabilityTracker:
    def _emit(self, world, source, staleness_ms=0.0, at=None):
        world.sim.emit(
            "flower.search_done",
            peer=1,
            website=0,
            locality=0,
            keyword="kw0",
            matches=0,
            source=source,
            staleness_ms=staleness_ms,
        )

    def test_window_accounting(self):
        world = CdnWorld(FlowerSystem)
        tracker = SearchAvailabilityTracker(world.sim)
        self._emit(world, "directory")
        self._emit(world, "replica", staleness_ms=1234.0)
        self._emit(world, "none")
        self._emit(world, "unregistered")  # excluded from the denominator
        stats = tracker.window_stats(0.0, 1.0)
        assert stats["issued"] == 3
        assert stats["answered"] == 2
        assert stats["availability"] == pytest.approx(2 / 3)
        assert stats["replica_served"] == 1
        assert stats["max_replica_staleness_ms"] == 1234.0
        assert stats["by_source"] == {
            "directory": 1,
            "replica": 1,
            "none": 1,
        }

    def test_empty_window_is_vacuously_available(self):
        world = CdnWorld(FlowerSystem)
        tracker = SearchAvailabilityTracker(world.sim)
        stats = tracker.window_stats(0.0, 1.0)
        assert stats["issued"] == 0
        assert stats["availability"] == 1.0
