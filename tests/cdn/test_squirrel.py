"""Protocol tests for the Squirrel baseline."""

from repro.cdn.squirrel.peer import HOME_DIRECTORY_CAPACITY
from repro.sim.clock import minutes


def home_of(world, key):
    """The peer currently acting as home node for an object key."""
    system = world.system
    key_id = system.ring.space.hash_value(system.catalog.url(key))
    for member in system.ring.active_members():
        pred = member.predecessor
        if pred is None:
            continue
        if system.ring.space.in_half_open_right(key_id, pred.id, member.node_id):
            return world.network.node(member.host.address)
    return None


class TestSetup:
    def test_every_seed_is_a_ring_member(self, squirrel_world):
        system = squirrel_world.system
        assert len(system.ring.members()) == len(system.seed_identities)

    def test_arrival_joins_ring(self, squirrel_world):
        world = squirrel_world
        peer = world.arrive(website=0)
        world.run_until(lambda: peer.chord is not None and peer.chord.joined)
        assert peer.chord.joined


class TestQueryPath:
    def test_first_query_misses_and_registers_at_home(self, squirrel_world):
        world = squirrel_world
        peer = world.arrive(website=0)
        record = world.query(peer, (0, 5))
        assert record.outcome in ("miss_server", "miss_failed")
        home = home_of(world, (0, 5))
        if home is not None and home is not peer:
            assert peer.address in home.home_directory.get((0, 5), {})

    def test_second_query_redirected_to_first_downloader(self, squirrel_world):
        world = squirrel_world
        first = world.arrive(website=0)
        world.query(first, (0, 5))
        second = world.arrive(website=0)
        world.run_until(lambda: second.chord is not None and second.chord.joined)
        record = world.query(second, (0, 5))
        if record.outcome == "hit_directory":
            assert record.transfer_ms == world.network.latency(
                second.address, first.address
            )
        else:
            assert record.outcome in ("miss_server", "miss_failed")

    def test_query_latency_includes_ring_walk(self, squirrel_world):
        """Squirrel pays a full DHT navigation per query (related work,
        section 2)."""
        world = squirrel_world
        peer = world.arrive(website=0)
        world.run_until(lambda: peer.chord.joined)
        record = world.query(peer, (0, 7))
        assert record.hops >= 0
        assert record.lookup_latency_ms >= 0.0

    def test_local_hit(self, squirrel_world):
        world = squirrel_world
        peer = world.arrive(website=0)
        peer.store.add_with_evictions((0, 3))
        record = world.query(peer, (0, 3))
        assert record.outcome == "hit_local"


class TestHomeNodeDirectory:
    def test_directory_lost_on_home_failure(self, squirrel_world):
        """The paper's core criticism: 'the directory information is
        abruptly lost at the failure of its storing peer'."""
        world = squirrel_world
        first = world.arrive(website=0)
        world.query(first, (0, 5))
        home = home_of(world, (0, 5))
        if home is None or home is first:
            return  # degenerate placement; covered by other seeds
        assert (0, 5) in home.home_directory
        home.crash()
        world.run(minutes(5))  # stabilization reassigns the key range
        new_home = home_of(world, (0, 5))
        if new_home is not None:
            assert (0, 5) not in new_home.home_directory

    def test_delegate_capacity_evicts_oldest(self, squirrel_world):
        home = squirrel_world.system.peers[0]
        requesters = list(range(11, 13 + HOME_DIRECTORY_CAPACITY))
        for requester in requesters:
            home._register_delegate((0, 1), requester)
        delegates = list(home.home_directory[(0, 1)])
        assert delegates == requesters[-HOME_DIRECTORY_CAPACITY:]

    def test_register_existing_delegate_refreshes(self, squirrel_world):
        home = squirrel_world.system.peers[0]
        home._register_delegate((0, 1), 11)
        home._register_delegate((0, 1), 12)
        home._register_delegate((0, 1), 11)  # refresh: 11 becomes newest
        assert list(home.home_directory[(0, 1)]) == [12, 11]

    def test_dead_delegate_report_removes_entry(self, squirrel_world):
        world = squirrel_world
        home = world.system.peers[0]
        home._register_delegate((0, 1), 11)
        home._drop_delegate((0, 1), 11)
        assert (0, 1) not in home.home_directory

    def test_pick_delegate_excludes_requester(self, squirrel_world):
        home = squirrel_world.system.peers[0]
        home._register_delegate((0, 1), 11)
        assert home._pick_delegate((0, 1), exclude=11) is None
        home._register_delegate((0, 1), 12)
        assert home._pick_delegate((0, 1), exclude=11) == 12


class TestChurnBehaviour:
    def test_crash_clears_directory_and_ring_membership(self, squirrel_world):
        world = squirrel_world
        peer = world.arrive(website=0)
        world.run_until(lambda: peer.chord.joined)
        peer.home_directory[(0, 1)] = {}
        peer.crash()
        assert peer.chord is None
        assert peer.home_directory == {}

    def test_rejoin_gets_fresh_chord_node(self, squirrel_world):
        world = squirrel_world
        peer = world.arrive(website=0)
        world.run_until(lambda: peer.chord.joined)
        peer.crash()
        world.run(minutes(5))
        peer.begin_session()
        world.run_until(lambda: peer.chord is not None and peer.chord.joined,
                        horizon_ms=minutes(10))
        assert peer.chord.joined
        assert peer.node_id == peer.chord.node_id  # same machine, same id
