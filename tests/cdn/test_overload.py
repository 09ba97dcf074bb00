"""Overload extension tests: bounded admission, shedding, warm splits.

Covers the three layers of the overload machinery separately:

- the virtual admission queue on :class:`DirectoryRole` (pure
  bookkeeping, unit-testable without a world);
- query shedding through the wire protocol (a full ``shed_overload``
  outcome recorded on the client);
- replica-aware PetalUp behaviour: partition-seeded splits and direct
  member handoff to the warm successor;
- the per-petal directory registry that makes instance lookups O(1).
"""

from repro.cdn.flower.directory import DirectoryRole
from repro.cdn.flower.system import FlowerSystem
from repro.cdn.petalup.system import PetalUpSystem
from repro.sim.clock import minutes, seconds

from tests.cdn.conftest import CdnWorld, make_params


class TestAdmissionQueue:
    def make_role(self):
        return DirectoryRole(
            owner_address=1, website=0, locality=0, instance=0, position_id=42
        )

    def test_fresh_queue_admits_without_wait(self):
        role = self.make_role()
        admitted, wait, depth = role.admit(now=1000.0, service_ms=40.0, limit=4)
        assert admitted and wait == 0.0 and depth == 0
        assert role.busy_until == 1040.0

    def test_backlog_accumulates_and_waits(self):
        role = self.make_role()
        role.admit(now=0.0, service_ms=40.0, limit=4)
        admitted, wait, depth = role.admit(now=0.0, service_ms=40.0, limit=4)
        assert admitted and wait == 40.0 and depth == 1
        assert role.busy_until == 80.0

    def test_full_queue_sheds(self):
        role = self.make_role()
        for _ in range(3):
            assert role.admit(now=0.0, service_ms=40.0, limit=3)[0]
        admitted, wait, depth = role.admit(now=0.0, service_ms=40.0, limit=3)
        assert not admitted and depth == 3
        assert role.queries_shed == 1
        assert role.peak_queue_depth == 3
        # Rejection leaves the backlog untouched.
        assert role.busy_until == 120.0

    # -------------------------------------------- two-class admission
    def test_foreign_limit_reserves_the_top_quarter(self):
        assert DirectoryRole.foreign_limit(1) == 1
        assert DirectoryRole.foreign_limit(2) == 1
        assert DirectoryRole.foreign_limit(4) == 3
        assert DirectoryRole.foreign_limit(8) == 6
        assert DirectoryRole.foreign_limit(100) == 75
        # Never zero, never the full queue (for limit >= 2).
        for limit in range(2, 64):
            bound = DirectoryRole.foreign_limit(limit)
            assert 1 <= bound < limit

    def test_foreign_sheds_where_a_member_is_still_admitted(self):
        role = self.make_role()
        # Fill to the foreign bound (3 of 4 slots).
        for _ in range(3):
            assert role.admit(now=0.0, service_ms=40.0, limit=4, foreign=True)[0]
        # Depth 3 == foreign_limit(4): the next foreign scan sheds ...
        admitted, _, depth = role.admit(
            now=0.0, service_ms=40.0, limit=4, foreign=True
        )
        assert not admitted and depth == 3
        assert role.queries_shed == 1
        assert role.foreign_shed == 1
        # ... while a petal member at the same instant still gets in.
        admitted, wait, depth = role.admit(now=0.0, service_ms=40.0, limit=4)
        assert admitted and depth == 3 and wait == 120.0

    def test_member_shed_does_not_count_as_foreign(self):
        role = self.make_role()
        for _ in range(2):
            role.admit(now=0.0, service_ms=40.0, limit=2)
        admitted, *_ = role.admit(now=0.0, service_ms=40.0, limit=2)
        assert not admitted
        assert role.queries_shed == 1
        assert role.foreign_shed == 0

    def test_idle_directory_never_starves_foreign_scans(self):
        # Even the tightest queue (limit=1, foreign bound 1) admits a
        # foreign scan when idle -- starvation bound of the two-class
        # design.
        role = self.make_role()
        admitted, wait, depth = role.admit(
            now=0.0, service_ms=40.0, limit=1, foreign=True
        )
        assert admitted and wait == 0.0 and depth == 0

    def test_foreign_class_drains_and_readmits(self):
        role = self.make_role()
        for _ in range(3):
            role.admit(now=0.0, service_ms=40.0, limit=4, foreign=True)
        assert not role.admit(now=0.0, service_ms=40.0, limit=4, foreign=True)[0]
        # After one service time the backlog has drained one slot.
        admitted, *_ = role.admit(now=40.0, service_ms=40.0, limit=4, foreign=True)
        assert admitted

    def test_backlog_drains_with_time(self):
        role = self.make_role()
        for _ in range(3):
            role.admit(now=0.0, service_ms=40.0, limit=8)
        assert role.queue_depth(60.0, 40.0) == 2
        assert role.queue_depth(200.0, 40.0) == 0
        admitted, wait, _depth = role.admit(now=200.0, service_ms=40.0, limit=8)
        assert admitted and wait == 0.0
        assert role.busy_until == 240.0


class TestQueryShedding:
    def make_world(self):
        # One-slot queue with a five-minute virtual service time: the
        # first admitted query blocks the queue for the whole test.
        return CdnWorld(
            FlowerSystem,
            params=make_params(
                directory_queue_limit=1, directory_service_ms=minutes(5)
            ),
        )

    def test_second_query_is_shed_with_terminal_outcome(self):
        world = self.make_world()
        world.run(minutes(1))
        first = world.arrive(website=0, locality=0)
        second = world.arrive(website=0, locality=0)
        world.query(first, (0, 11))
        record = world.query(second, (0, 13))
        assert record.outcome == "shed_overload"
        assert world.system.stats().overload.queries_shed >= 1
        assert world.system.metrics.sheds >= 1
        directory = world.directory_of(0, 0)
        assert directory.directory.queries_shed >= 1

    def test_queue_off_never_sheds(self):
        world = CdnWorld(
            FlowerSystem, params=make_params(directory_queue_limit=0)
        )
        world.run(minutes(1))
        peer = world.arrive(website=0, locality=0)
        record = world.query(peer, (0, 11))
        assert record.outcome != "shed_overload"
        assert world.system.stats().overload.queries_shed == 0


def make_overload_petalup_world(load_limit=3, seed=1):
    return CdnWorld(
        PetalUpSystem,
        seed=seed,
        params=make_params(
            overload_shedding=True,
            directory_load_limit=load_limit,
            max_instances=4,
        ),
    )


def fill_petal(world, website=0, locality=0, count=6):
    peers = []
    for index in range(count):
        peer = world.arrive(website=website, locality=locality)
        world.query(peer, (website, index + 1))
        world.run(seconds(30))
        peers.append(peer)
    return peers


class TestReplicaAwareSplit:
    def test_split_seeds_new_instance_with_member_partition(self):
        world = make_overload_petalup_world()
        fill_petal(world, count=6)
        world.run_until(
            lambda: world.system.instance_count(0, 0) >= 2,
            horizon_ms=minutes(15),
        )
        second = world.directory_of(0, 0, instance=1)
        assert second is not None
        # Warm from birth: the split handed the new instance half the
        # member partition before it joined the ring, so it serves its
        # first admitted query from a populated view.
        assert second.directory.load >= 1

    def test_partition_members_repoint_to_new_instance(self):
        world = make_overload_petalup_world()
        peers = fill_petal(world, count=6)
        world.run_until(
            lambda: world.system.instance_count(0, 0) >= 2,
            horizon_ms=minutes(15),
        )
        world.run(minutes(1))
        second = world.directory_of(0, 0, instance=1)
        repointed = [
            peer
            for peer in peers
            if peer.alive
            and peer.dir_info is not None
            and peer.dir_info.address == second.address
        ]
        assert repointed

    def test_sweep_sheds_excess_members_to_successor(self):
        world = make_overload_petalup_world()
        fill_petal(world, count=6)
        world.run_until(
            lambda: world.system.instance_count(0, 0) >= 2,
            horizon_ms=minutes(15),
        )
        first = world.directory_of(0, 0, instance=0)
        second = world.directory_of(0, 0, instance=1)
        extras = [world.arrive(website=0, locality=0) for _ in range(5)]
        for index, peer in enumerate(extras):
            first.directory.add_member(peer.address, [(0, 10 + index)])
        overloaded = first.directory.load
        assert overloaded > world.system.params.directory_load_limit
        world.run(minutes(12))  # one keepalive-period sweep plus jitter
        assert world.system.members_shed > 0
        assert first.directory.members_shed > 0
        assert first.directory.load < overloaded
        shed_addresses = [
            peer.address
            for peer in extras
            if second.directory.has_member(peer.address)
        ]
        assert shed_addresses

    def test_transfer_to_a_dead_successor_times_out_and_keeps_every_member(self):
        """The warm successor dies just before ``flower.member_transfer``
        goes out: the RPC times out, the shedder may try again, and no
        member was told to move -- every one is still indexed here."""
        world = make_overload_petalup_world()
        fill_petal(world, count=6)
        world.run_until(
            lambda: world.system.instance_count(0, 0) >= 2,
            horizon_ms=minutes(15),
        )
        first = world.directory_of(0, 0, instance=0)
        second = world.directory_of(0, 0, instance=1)
        for index in range(5):
            peer = world.arrive(website=0, locality=0)
            first.directory.add_member(peer.address, [(0, 10 + index)])
        members = first.directory.members.addresses()
        assert len(members) > world.system.params.directory_load_limit
        relief = first.service.relief
        assert relief.next_instance_address() == second.address
        counts = world.network.kind_counts
        sent = counts["flower.member_transfer"], counts["flower.member_shed"]
        # The split's own sweeps may already have shed members: compare.
        shed = first.directory.members_shed, world.system.members_shed

        second.crash()
        relief._shed_members_to_successor()
        assert relief._shedding_members
        assert counts["flower.member_transfer"] == sent[0] + 1
        world.run_until(lambda: not relief._shedding_members, horizon_ms=seconds(30))

        assert not relief._shedding_members
        assert all(first.directory.has_member(address) for address in members)
        assert counts["flower.member_shed"] == sent[1]
        assert (first.directory.members_shed, world.system.members_shed) == shed


class TestDirectoryRegistry:
    def test_registry_matches_ring_holder(self):
        world = CdnWorld(FlowerSystem)
        world.run(minutes(1))
        directory = world.directory_of(0, 0)
        instances = world.system.directory_instances(0, 0)
        assert directory.address in instances
        assert instances[directory.address] is directory

    def test_crash_unregisters(self):
        world = CdnWorld(FlowerSystem)
        world.run(minutes(1))
        directory = world.directory_of(0, 0)
        directory.crash()
        assert directory.address not in world.system.directory_instances(0, 0)

    def test_instance_count_matches_population_scan(self):
        world = make_overload_petalup_world()
        fill_petal(world, count=6)
        world.run(minutes(15))
        system = world.system
        for website in range(system.catalog.num_websites):
            for locality in range(2):
                brute = sum(
                    1
                    for peer in system.peers.values()
                    if peer.alive
                    and peer.directory is not None
                    and peer.directory.website == website
                    and peer.directory.locality == locality
                )
                assert system.instance_count(website, locality) == brute
