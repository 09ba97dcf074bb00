"""Queue-aware redirect hints: pre-routing, staleness, and the one-hop bound.

The reactive overload plane lets clients act on gossiped queue depths
*before* the admission queue sheds them.  These tests pin the safety
contract of that plane under churn (the ISSUE 10 satellite): a hint that
went stale -- the hinted instance crashed or demoted after gossiping its
load -- must cost at most one extra RPC, never a routing loop, and every
hint-guided query must still close its ledger entry with a terminal
outcome.
"""

from repro.cdn.flower.system import FlowerSystem
from repro.cdn.petalup.system import PetalUpSystem
from repro.sim.clock import minutes, seconds

from tests.cdn.conftest import CdnWorld, make_params


def make_hint_world():
    # One-slot queue with a five-minute virtual service time: the first
    # admitted query keeps the home queue at its limit for the whole
    # test, so a fresh full-depth hint is truthful.
    return CdnWorld(
        FlowerSystem,
        params=make_params(
            directory_queue_limit=1,
            directory_service_ms=minutes(5),
            redirect_hints=True,
        ),
    )


def plant_loads(member, home_address, target_address, now):
    """Fresh hints: home at its queue limit, *target* looking idle."""
    member._petal_loads = {
        home_address: (1, now),
        target_address: (0, now),
    }


class TestHintStalenessUnderChurn:
    def test_crashed_hinted_instance_is_a_single_accounted_miss(self):
        """A hint pointing at a dead peer times out once, then terminates.

        The hop's timeout path must drop the stale hint, count it, and
        close the query through the origin server -- no retry against
        the dead target, no second hop, no open ledger entry.
        """
        world = make_hint_world()
        world.run(minutes(1))
        member = world.arrive(website=0, locality=0)
        world.query(member, (0, 11))  # registers member, fills the queue
        target = world.arrive(website=0, locality=1)
        target.crash()
        home = world.directory_of(0, 0)
        plant_loads(member, home.address, target.address, world.sim.now)
        record = world.query(member, (0, 13))
        assert record.outcome == "miss_failed"
        assert world.system.stats().overload.hint_hops == 1
        assert world.system.hint_stale == 1
        assert target.address not in member._petal_loads
        assert member._open_queries.get((0, 13)) is None

    def test_demoted_hinted_instance_falls_back_home_without_looping(self):
        """A live peer that is no longer a directory answers
        ``not_directory``: the client forgets the hint and retries the
        home path exactly once -- where the full queue sheds it with the
        ordinary terminal outcome, not a second hint hop.
        """
        world = make_hint_world()
        world.run(minutes(1))
        member = world.arrive(website=0, locality=0)
        world.query(member, (0, 11))  # registers member, fills the queue
        target = world.arrive(website=0, locality=0)  # plain content peer
        home = world.directory_of(0, 0)
        plant_loads(member, home.address, target.address, world.sim.now)
        record = world.query(member, (0, 13))
        assert record.outcome == "shed_overload"
        assert world.system.stats().overload.hint_hops == 1
        assert world.system.hint_stale == 1
        assert target.address not in member._petal_loads
        assert member._open_queries.get((0, 13)) is None

    def test_expired_hints_are_ignored(self):
        """Past ``HINT_TTL_MS`` a harvested depth says nothing: the
        client takes the normal home path and no hop is charged."""
        world = make_hint_world()
        world.run(minutes(1))
        member = world.arrive(website=0, locality=0)
        world.query(member, (0, 11))
        target = world.arrive(website=0, locality=1)
        home = world.directory_of(0, 0)
        stale = world.sim.now - minutes(31)  # well beyond the one-minute TTL
        member._petal_loads = {
            home.address: (1, stale),
            target.address: (0, stale),
        }
        record = world.query(member, (0, 13))
        assert world.system.stats().overload.hint_hops == 0
        assert record.outcome == "shed_overload"  # queue still full

    def test_hints_off_never_preroutes(self):
        world = CdnWorld(
            FlowerSystem,
            params=make_params(
                directory_queue_limit=1, directory_service_ms=minutes(5)
            ),
        )
        world.run(minutes(1))
        member = world.arrive(website=0, locality=0)
        world.query(member, (0, 11))
        home = world.directory_of(0, 0)
        plant_loads(member, home.address, home.address + 1, world.sim.now)
        world.query(member, (0, 13))
        assert world.system.stats().overload.hint_hops == 0


class TestHintPreRouting:
    def make_world(self):
        return CdnWorld(
            PetalUpSystem,
            params=make_params(
                overload_shedding=True,
                directory_queue_limit=4,
                directory_service_ms=40.0,
                redirect_hints=True,
                directory_load_limit=3,
                max_instances=4,
            ),
        )

    def split_petal(self, world):
        peers = []
        for index in range(6):
            peer = world.arrive(website=0, locality=0)
            world.query(peer, (0, index + 1))
            world.run(seconds(30))
            peers.append(peer)
        world.run_until(
            lambda: world.system.instance_count(0, 0) >= 2,
            horizon_ms=minutes(15),
        )
        return peers

    def test_hint_hop_lands_on_the_live_less_loaded_instance(self):
        """The happy path: a fresh hint routes the query around the
        saturated home instance to its idle sibling, which serves it
        (provider or origin miss) -- no shed, ledger closed."""
        world = self.make_world()
        peers = self.split_petal(world)
        first = world.directory_of(0, 0, instance=0)
        second = world.directory_of(0, 0, instance=1)
        member = next(
            p
            for p in peers
            if p.alive
            and p.directory is None
            and p.dir_info is not None
            and p.dir_info.address == first.address
        )
        member._petal_loads = {
            first.address: (4, world.sim.now),
            second.address: (0, world.sim.now),
        }
        record = world.query(member, (0, 15))
        assert world.system.stats().overload.hint_hops == 1
        assert record.outcome in ("hit_directory", "miss_server")
        assert member._open_queries.get((0, 15)) is None

    def test_replica_sync_gossips_the_load_vector_to_siblings(self):
        """With replication on, sibling instances learn each other's
        queue depth over the sync channel: after a few keepalive rounds
        the second instance knows the first's load without ever being
        queried by it."""
        world = CdnWorld(
            PetalUpSystem,
            params=make_params(
                overload_shedding=True,
                directory_queue_limit=4,
                directory_service_ms=40.0,
                redirect_hints=True,
                directory_replication_k=2,
                directory_load_limit=3,
                max_instances=4,
            ),
        )
        self.split_petal(world)
        first = world.directory_of(0, 0, instance=0)
        second = world.directory_of(0, 0, instance=1)
        world.run(minutes(25))  # a few keepalive/sync rounds
        assert first is not None and second is not None
        known = second.directory.peer_loads
        assert first.address in known
