"""Unit tests for origin servers and the shared CDN base layer."""

import pytest

from repro.errors import CDNError
from repro.experiments.config import ExperimentConfig

from tests.cdn.conftest import CdnWorld


class TestSystemParams:
    def test_defaults_match_table_1(self):
        system = CdnWorld(params=ExperimentConfig()).system
        assert system.query_interval_ms == 6 * 60_000
        assert system.gossip_period_ms == 60 * 60_000
        assert system.params.push_threshold == 0.5
        assert system.params.max_instances == 1
        assert system.params.directory_load_limit is None


class TestOriginServer:
    def test_server_serves_own_website(self):
        world = CdnWorld()
        peer = world.arrive(website=0)
        server = world.system.servers[0]
        record = world.query(peer, (0, 5))
        assert record.outcome in ("miss_server", "miss_failed")
        assert server.requests_served >= 1

    def test_one_server_per_website(self):
        world = CdnWorld(num_websites=2)
        assert set(world.system.servers) == {0, 1}


class TestIdentityManagement:
    def test_website_assignment_is_sticky(self):
        world = CdnWorld()
        system = world.system
        website = system.website_of(50)
        assert system.website_of(50) == website

    def test_assign_website_conflict(self):
        world = CdnWorld()
        world.system.assign_website(60, 1)
        with pytest.raises(CDNError):
            world.system.assign_website(60, 0)
        world.system.assign_website(60, 1)  # idempotent

    def test_peer_for_creates_once(self):
        world = CdnWorld()
        assert world.system.peer_for(70) is world.system.peer_for(70)


class TestQueryAccounting:
    def test_miss_metrics_use_server_distance(self):
        world = CdnWorld()
        peer = world.arrive(website=0)
        record = world.query(peer, (0, 3))
        server = world.system.servers[0]
        expected = world.network.latency(peer.address, server.address)
        if record.outcome == "miss_server":
            assert record.transfer_ms == pytest.approx(expected)
            assert record.lookup_latency_ms >= 0.0

    def test_store_updated_after_query(self):
        world = CdnWorld()
        peer = world.arrive(website=0)
        world.query(peer, (0, 3))
        assert (0, 3) in peer.store

    def test_local_hit_short_circuits(self):
        world = CdnWorld()
        peer = world.arrive(website=0)
        peer.store.add_with_evictions((0, 9))
        record = world.query(peer, (0, 9))
        assert record.outcome == "hit_local"
        assert record.transfer_ms == 0.0

    def test_crash_stops_query_process(self):
        world = CdnWorld()
        peer = world.arrive(website=0)
        peer.crash()
        assert not peer.alive
        before = peer.queries_issued
        world.run(60 * 60_000.0)
        assert peer.queries_issued == before

    def test_query_stream_never_repeats_across_sessions(self):
        world = CdnWorld()
        peer = world.arrive(website=0)
        world.query(peer, (0, 3))
        peer.crash()
        peer.begin_session()
        if peer.stream is not None:
            assert 3 in peer.stream.requested
