"""Protocol tests for Flower-CDN: petals, D-ring queries, maintenance."""

from repro.cdn.flower.system import FlowerSystem
from repro.sim.clock import minutes, seconds

from tests.cdn.conftest import CdnWorld, make_params


class TestInitialPopulation:
    def test_one_directory_per_website_locality(self, flower_world):
        world = flower_world
        system = world.system
        assert len(system.seed_identities) == 4  # 2 websites x 2 localities
        for website in range(2):
            for locality in range(2):
                directory = world.directory_of(website, locality)
                assert directory is not None
                assert directory.directory.website == website
                assert directory.directory.locality == locality

    def test_dring_is_formed_and_sorted(self, flower_world):
        members = flower_world.system.ring.members()
        assert len(members) == 4
        ids = [m.node_id for m in members]
        assert ids == sorted(ids)

    def test_seed_directories_sit_in_their_locality(self, flower_world):
        for website in range(2):
            for locality in range(2):
                directory = flower_world.directory_of(website, locality)
                assert directory.locality == locality


class TestNewClientQuery:
    def test_first_query_registers_with_petal_directory(self, flower_world):
        world = flower_world
        client = world.arrive(website=0)
        directory = world.directory_of(0, client.locality)
        record = world.query(client, (0, 5))
        assert record.outcome == "miss_server"  # empty petal: nothing cached
        assert directory.directory.has_member(client.address)
        assert client.dir_info is not None
        assert client.dir_info.address == directory.address

    def test_client_pushes_content_after_first_query(self, flower_world):
        world = flower_world
        client = world.arrive(website=0)
        directory = world.directory_of(0, client.locality)
        world.query(client, (0, 5))
        world.run(seconds(10))  # let the push land
        assert directory.directory.providers_of((0, 5)) == {client.address}

    def test_second_client_hits_via_directory(self, flower_world):
        world = flower_world
        first = world.arrive(website=0, locality=0)
        world.query(first, (0, 5))
        world.run(seconds(10))
        second = world.arrive(website=0, locality=0)
        second.locality = first.locality  # same petal
        record = world.query(second, (0, 5))
        assert record.outcome == "hit_directory"
        assert record.transfer_ms == world.network.latency(
            second.address, first.address
        )

    def test_client_of_other_locality_misses(self, flower_world):
        world = flower_world
        first = world.arrive(website=0, locality=0)
        world.query(first, (0, 5))
        world.run(seconds(10))
        other = world.arrive(website=0, locality=1)
        record = world.query(other, (0, 5))
        # different petal: the copy in locality 0 is invisible without
        # directory collaboration
        assert record.outcome == "miss_server"

    def test_registered_client_leaves_dring_alone(self, flower_world):
        """Section 4: once in the petal, queries do not use D-ring."""
        world = flower_world
        client = world.arrive(website=0)
        world.query(client, (0, 5))
        lookups_before = world.sim.trace.count("chord.lookup")
        world.query(client, (0, 6))
        world.query(client, (0, 7))
        # D-ring lookups may happen for ring maintenance, but the client's
        # own queries go straight to its directory peer
        assert client.dir_info is not None
        assert world.sim.trace.count("chord.lookup") - lookups_before <= 2


class TestContentPeerPaths:
    def test_summary_hit_after_gossip(self, flower_world):
        world = flower_world
        holder = world.arrive(website=0, locality=0)
        world.query(holder, (0, 5))
        querier = world.arrive(website=0, locality=0)
        querier.locality = holder.locality
        world.query(querier, (0, 9))  # join the petal
        # let several gossip rounds spread summaries
        world.run(minutes(35))
        if holder.address in querier.peer_summaries:
            record = world.query(querier, (0, 5))
            assert record.outcome in ("hit_summary", "hit_directory")

    def test_fetch_falls_back_to_server_when_provider_dies(self, flower_world):
        world = flower_world
        holder = world.arrive(website=0, locality=0)
        world.query(holder, (0, 5))
        world.run(seconds(10))
        querier = world.arrive(website=0, locality=0)
        querier.locality = holder.locality
        holder.crash()
        record = world.query(querier, (0, 5))
        assert record.outcome in ("miss_failed", "miss_server")
        assert (0, 5) in querier.store  # served by the origin regardless

    def test_dead_provider_hint_cleans_index(self, flower_world):
        world = flower_world
        holder = world.arrive(website=0, locality=0)
        world.query(holder, (0, 5))
        world.run(seconds(10))
        directory = world.directory_of(0, holder.locality)
        querier = world.arrive(website=0, locality=0)
        querier.locality = holder.locality
        world.query(querier, (0, 9))  # join petal first
        holder.crash()
        world.query(querier, (0, 5))
        world.run(seconds(10))
        # the dead holder is purged; the querier (served by the origin and
        # having pushed) is now the only provider
        assert holder.address not in directory.directory.providers_of((0, 5))


class TestMaintenance:
    def test_keepalive_keeps_member_alive_in_index(self, flower_world):
        world = flower_world
        client = world.arrive(website=0)
        world.query(client, (0, 5))
        directory = world.directory_of(0, client.locality)
        # several sweep periods pass; keepalives must prevent expiry
        world.run(minutes(45))
        assert directory.directory.has_member(client.address)

    def test_silent_member_expires(self, flower_world):
        world = flower_world
        client = world.arrive(website=0)
        world.query(client, (0, 5))
        directory = world.directory_of(0, client.locality)
        client.crash()
        world.run(minutes(45))  # > MEMBER_EXPIRY_ROUNDS keepalive periods
        assert not directory.directory.has_member(client.address)

    def test_directory_failure_recovery_by_member(self, flower_world):
        """Section 5.2.1: a content peer detecting the failure replaces the
        directory peer; the petal keeps a directory at the same position."""
        world = flower_world
        client = world.arrive(website=0)
        world.query(client, (0, 5))
        directory = world.directory_of(0, client.locality)
        position = directory.directory.position_id
        directory.crash()
        world.run(minutes(45))
        replacement = world.directory_of(0, client.locality)
        assert replacement is not None
        assert replacement.address != directory.address
        assert replacement.directory.position_id == position

    def test_replacement_directory_learns_content_from_push(self, flower_world):
        world = flower_world
        client = world.arrive(website=0)
        world.query(client, (0, 5))
        directory = world.directory_of(0, client.locality)
        directory.crash()
        world.run(minutes(60))
        replacement = world.directory_of(0, client.locality)
        if replacement is not None and replacement is not client:
            world.run(minutes(30))
            assert client.address in replacement.directory.member_keys or (
                replacement.directory.providers_of((0, 5)) == {client.address}
            )

    def test_new_client_claims_vacant_position(self, flower_world):
        """Section 5.2.2 case 2: no directory exists for the petal; the
        first client becomes its directory peer."""
        world = flower_world
        directory = world.directory_of(1, 0)
        directory.crash()
        client = world.arrive(website=1, locality=0)
        record = world.query(client, (1, 3))
        assert record.outcome in ("miss_server", "miss_failed")
        world.run_until(
            lambda: world.directory_of(1, 0) is not None, horizon_ms=minutes(30)
        )
        replacement = world.directory_of(1, 0)
        assert replacement.directory.website == 1


class TestNonActiveWebsites:
    def test_non_active_peer_registers_without_querying(self):
        world = CdnWorld(FlowerSystem, num_websites=2, num_active_websites=1)
        peer = world.arrive(website=1)  # website 1 inactive
        world.run(minutes(10))
        assert peer.queries_issued == 0
        directory = world.directory_of(1, peer.locality)
        assert directory is not None
        assert directory.directory.has_member(peer.address)


class TestCollaboration:
    def test_sibling_walk_turns_remote_copy_into_hit_transfer(self):
        world = CdnWorld(
            FlowerSystem, params=make_params(directory_collaboration=True)
        )
        holder = world.arrive(website=0, locality=0)
        world.query(holder, (0, 5))
        world.run(seconds(10))
        other = world.arrive(website=0, locality=1)
        record = world.query(other, (0, 5))
        assert record.outcome in ("hit_transfer", "miss_server")
        if record.outcome == "hit_transfer":
            assert record.transfer_ms == world.network.latency(
                other.address, holder.address
            )
