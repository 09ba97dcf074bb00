"""Directory replication and warm takeover (section 5.3 extension).

Unit tests pin the versioning contract (journal, full/delta payloads,
the :class:`ReplicaStore` acceptance rules, per-entry merge dominance);
world tests drive the protocol end to end: periodic syncs landing on the
member heir, a crash replacement winning the section 5.2 race *warm*,
and the split-brain reconciliation in
which a provisional claimant merges into the ring-registered holder and
demotes (invariants I2/I4).
"""

from repro.cdn.flower.directory import DirectoryRole
from repro.cdn.flower.replication import (
    ReplicaStore,
    delta_sync_payload,
    full_sync_payload,
)
from repro.cdn.flower.service import DirectoryService
from repro.cdn.flower.system import FlowerSystem
from repro.dht.node import ChordNode
from repro.sim.clock import minutes, seconds
from tests.cdn.conftest import CdnWorld, make_params


def make_role(owner=99, website=0, locality=0, instance=0, position=12345):
    return DirectoryRole(owner, website, locality, instance, position)


def replication_world(**overrides):
    params = make_params(directory_replication_k=2, **overrides)
    return CdnWorld(FlowerSystem, params=params)


def _register(world, website=0, locality=0, key=(0, 5)):
    """One client online + queried once so its push lands in the index."""
    client = world.arrive(website=website, locality=locality)
    directory = world.directory_of(website, locality)
    world.query(client, key)
    world.run(seconds(10))
    assert directory.directory.has_member(client.address)
    return client, directory


# ---------------------------------------------------------------------------
# Version journal
# ---------------------------------------------------------------------------

class TestVersionJournal:
    def test_member_changes_bump_the_version(self):
        role = make_role()
        assert role.version == 0
        role.add_member(10, [(0, 1)])
        after_add = role.version
        assert after_add > 0
        role.update_member_keys(10, [(0, 1), (0, 2)])
        assert role.version > after_add

    def test_unchanged_push_does_not_bump(self):
        role = make_role()
        role.add_member(10, [(0, 1)])
        before = role.version
        role.update_member_keys(10, [(0, 1)])  # same key set: no-op
        assert role.version == before

    def test_removal_tombstones(self):
        role = make_role()
        role.add_member(10, [(0, 1)])
        base = role.version
        role.remove_member(10)
        assert role.removed_since(base) == [10]
        assert role.changed_since(base) == []
        # re-admission clears the tombstone
        role.add_member(10)
        assert role.removed_since(base) == []
        assert role.changed_since(base) == [10]

    def test_changed_since_is_exclusive_of_base(self):
        role = make_role()
        role.add_member(10)
        v1 = role.version
        role.add_member(20)
        assert role.changed_since(v1) == [20]
        assert role.changed_since(0) == [10, 20]
        assert role.changed_since(role.version) == []


# ---------------------------------------------------------------------------
# Payloads and the replica store
# ---------------------------------------------------------------------------

class TestReplicaStore:
    def test_full_snapshot_roundtrip(self):
        role = make_role()
        role.add_member(10, [(0, 1), (0, 2)])
        role.add_member(20, [(0, 3)])
        store = ReplicaStore()
        ack = store.accept(full_sync_payload(role, role.owner_address), now=0.0)
        assert ack == {"status": "ok", "version": role.version}
        record = store.get(role.position_id)
        assert record.members == {10: 0, 20: 0}
        assert record.member_keys == {10: [(0, 1), (0, 2)], 20: [(0, 3)]}

    def test_delta_applies_on_exact_base(self):
        role = make_role()
        role.add_member(10, [(0, 1)])
        store = ReplicaStore()
        store.accept(full_sync_payload(role, role.owner_address), now=0.0)
        base = role.version
        role.add_member(20, [(0, 3)])
        role.remove_member(10)
        ack = store.accept(
            delta_sync_payload(role, role.owner_address, base), now=1.0
        )
        assert ack == {"status": "ok", "version": role.version}
        record = store.get(role.position_id)
        assert 10 not in record.members  # tombstone applied
        assert record.member_keys == {20: [(0, 3)]}

    def test_gapped_delta_requests_full(self):
        role = make_role()
        role.add_member(10)
        store = ReplicaStore()
        store.accept(full_sync_payload(role, role.owner_address), now=0.0)
        have = role.version
        role.add_member(20)
        skipped_base = role.version  # never acknowledged by the store
        role.add_member(30)
        ack = store.accept(
            delta_sync_payload(role, role.owner_address, skipped_base), now=1.0
        )
        assert ack == {"status": "need_full", "have": have}

    def test_delta_without_record_requests_full(self):
        role = make_role()
        role.add_member(10)
        ack = ReplicaStore().accept(
            delta_sync_payload(role, role.owner_address, 0), now=0.0
        )
        assert ack["status"] == "need_full"
        assert ack["have"] == -1

    def test_version_behind_full_is_rejected_as_stale(self):
        """A demoted split-brain loser cannot roll a replica backwards."""
        fresh = make_role(owner=1)
        fresh.add_member(10)
        fresh.add_member(20)
        stale = make_role(owner=2)
        stale.add_member(30)
        assert stale.version < fresh.version
        store = ReplicaStore()
        store.accept(full_sync_payload(fresh, 1), now=0.0)
        ack = store.accept(full_sync_payload(stale, 2), now=1.0)
        assert ack == {"status": "stale", "have": fresh.version}
        assert store.get(fresh.position_id).members == {10: 0, 20: 0}


class TestMergeDominance:
    def test_fresher_remote_entry_wins(self):
        mine = make_role(owner=1)
        mine.add_member(10, [(0, 1)])
        # age our copy of 10 by two sweeps without expiring it
        mine.members.increase_ages()
        mine.members.increase_ages()
        adopted = mine.merge_remote(
            {10: 0, 20: 1}, {10: [(0, 7)], 20: [(0, 3)]}, remote_version=1
        )
        assert adopted == 2  # both: 20 unknown, 10 fresher remotely
        assert mine.member_keys[10] == {(0, 7)}
        assert (0, 3) in mine.index and 20 in mine.index[(0, 3)]

    def test_staler_remote_entry_is_ignored(self):
        mine = make_role(owner=1)
        mine.add_member(10, [(0, 1)])
        adopted = mine.merge_remote({10: 5}, {10: [(0, 9)]}, remote_version=0)
        assert adopted == 0
        assert mine.member_keys[10] == {(0, 1)}

    def test_owner_entry_is_never_adopted(self):
        mine = make_role(owner=1)
        adopted = mine.merge_remote({1: 0}, {1: [(0, 1)]}, remote_version=10)
        assert adopted == 0
        assert not mine.has_member(1)

    def test_version_jumps_past_remote(self):
        mine = make_role(owner=1)
        mine.merge_remote({10: 0}, {}, remote_version=40)
        assert mine.version > 40


# ---------------------------------------------------------------------------
# End-to-end: periodic sync
# ---------------------------------------------------------------------------

class TestPeriodicSync:
    def test_member_heir_holds_a_replica(self):
        world = replication_world()
        client, directory = _register(world, key=(0, 5))
        world.run(minutes(25))  # >= two keepalive-cadence sync rounds
        role = directory.directory
        heir = world.network.node(min(role.members.addresses()))
        record = heir.replica_store.get(role.position_id)
        assert record is not None
        assert record.origin == directory.address
        assert client.address in record.members
        assert (0, 5) in record.member_keys[client.address]
        stats = world.system.stats().replication.to_dict()
        assert stats["syncs"] > 0 and stats["fulls"] > 0
        assert stats["replica_holders"] >= 1

    def test_replication_off_runs_no_machinery(self):
        params = make_params(directory_replication_k=0)
        world = CdnWorld(FlowerSystem, params=params)
        _register(world, key=(0, 5))
        world.run(minutes(25))
        stats = world.system.stats().replication.to_dict()
        assert stats["syncs"] == 0
        assert stats["replicas_stored"] == 0
        assert all(
            len(p.replica_store) == 0 for p in world.system.peers.values()
        )


# ---------------------------------------------------------------------------
# End-to-end: warm crash takeover (section 5.2 race, replicated)
# ---------------------------------------------------------------------------

class TestWarmTakeover:
    def test_crash_replacement_installs_replica_state(self):
        world = replication_world()
        first, directory = _register(world, key=(0, 5))
        second, _ = _register(world, key=(0, 9))
        world.run(minutes(25))  # replicas propagate to heir + successors
        world.sim.trace.record("flower.replica_adopted")
        old_role = directory.directory
        assert old_role.load >= 2

        directory.crash()
        world.run(minutes(45))  # strike-out + replacement race

        replacement = world.directory_of(0, 0)
        assert replacement is not None
        assert replacement.address != directory.address
        role = replacement.directory
        # Warm: the survivor members are indexed *before* their next
        # keepalive/push cycle could have re-taught an empty replacement.
        other = second if replacement.address == first.address else first
        assert role.has_member(other.address)
        adopted = world.sim.trace.events("flower.replica_adopted")
        assert adopted, "takeover must be seeded from a replica"
        for event in adopted:
            assert event.payload["staleness_ms"] >= 0.0
        assert any(e.payload["adopted"] > 0 for e in adopted)


# ---------------------------------------------------------------------------
# End-to-end: split-brain reconciliation (I2 / I4)
# ---------------------------------------------------------------------------

class TestSplitBrainReconciliation:
    def test_provisional_claimant_merges_into_registered_holder(self):
        world = replication_world()
        client, registered = _register(world, key=(0, 5))
        claimant = world.arrive(website=0, locality=0)
        world.run(minutes(5))  # claimant registers as a content peer
        world.sim.trace.record(
            "flower.slot_merged", "flower.directory_demoted"
        )

        # Force the partition-side outcome by hand: the claimant serves
        # the already-taken slot provisionally, with its own member view.
        position = world.system.key_service.position_id(0, 0, 0)
        role = DirectoryRole(claimant.address, 0, 0, 0, position)
        role.add_member(client.address, [(0, 5)])
        DirectoryService(claimant, role).serve_provisionally()
        assert claimant.directory is role and role.provisional

        world.run(minutes(20))  # discovery + reconcile + demotion

        # I2: exactly one live claimant of the slot survives -- the
        # ring-registered holder; the provisional side demoted.
        holders = [
            peer
            for peer in world.system.peers.values()
            if peer.alive
            and peer.directory is not None
            and peer.directory.position_id == position
        ]
        assert [h.address for h in holders] == [registered.address]
        assert not registered.directory.provisional
        assert claimant.directory is None
        # The loser re-points at the winner (and will re-push to it).
        assert claimant.dir_info is not None
        assert claimant.dir_info.address == registered.address

        # I4: the winner absorbed the loser's state before the demotion.
        merged = world.sim.trace.events("flower.slot_merged")
        assert any(
            e.payload["peer"] == registered.address
            and e.payload["origin"] == claimant.address
            for e in merged
        )
        demoted = world.sim.trace.events("flower.directory_demoted")
        assert any(
            e.payload["peer"] == claimant.address
            and e.payload["winner"] == registered.address
            for e in demoted
        )
        assert registered.directory.has_member(client.address)


class TestJoinLookupRetry:
    """A dead hop fails a D-ring lookup as surely as a partition does, so
    a join whose lookup fails asks once more from a fresh bootstrap
    before it serves the slot without the ring."""

    def _claim_taken_slot(self, monkeypatch, failures):
        world = replication_world()
        client, registered = _register(world, key=(0, 5))
        claimant = world.arrive(website=0, locality=0)
        world.run(minutes(5))
        real_join = ChordNode.join
        joins = []

        def join(node, bootstrap, on_joined, on_failed):
            joins.append(bootstrap)
            if len(joins) <= failures:
                node.host.sim.schedule(10.0, on_failed, "lookup", None)
            else:
                real_join(node, bootstrap, on_joined, on_failed)

        monkeypatch.setattr(ChordNode, "join", join)
        position = world.system.key_service.position_id(0, 0, 0)
        role = DirectoryRole(claimant.address, 0, 0, 0, position)
        DirectoryService(claimant, role).join_ring()
        world.run(minutes(1))
        return registered, claimant, role, joins

    def test_one_failed_lookup_retries_and_follows_the_holder(self, monkeypatch):
        registered, claimant, role, joins = self._claim_taken_slot(monkeypatch, 1)
        assert len(joins) == 2
        assert not role.provisional
        assert claimant.directory is None
        assert claimant.dir_info.address == registered.address
        assert registered.directory is not None

    def test_two_failed_lookups_serve_provisionally(self, monkeypatch):
        registered, claimant, role, joins = self._claim_taken_slot(monkeypatch, 2)
        assert len(joins) == 2
        assert claimant.directory is role and role.provisional


# ---------------------------------------------------------------------------
# Replicated search: replicas answer from the replicated member index
# (section 5.4)
# ---------------------------------------------------------------------------

class TestPostingReplication:
    def _searchable_role(self):
        from repro.cdn.flower.search import KeywordSpace

        space = KeywordSpace(num_keywords=8)
        role = make_role()
        role.add_member(10, [(0, 5)])
        role.add_member(11, [(0, 9)])
        return role, space

    def test_replica_record_answers_searches(self):
        from repro.cdn.flower.search import KeywordSpace

        role, space = self._searchable_role()
        store = ReplicaStore()
        ack = store.accept(full_sync_payload(role, role.owner_address), now=0.0)
        assert ack["status"] == "ok"
        record = store.get(role.position_id)
        keyword = next(iter(space.keywords_of((0, 5))))
        matches = record.search_matches(KeywordSpace(num_keywords=8), keyword, 20)
        assert ((0, 5), 10) in matches

    def test_delta_updates_replica_search_answers(self):
        role, space = self._searchable_role()
        store = ReplicaStore()
        store.accept(full_sync_payload(role, role.owner_address), now=0.0)
        base = role.version
        role.update_member_keys(10, [(0, 5), (0, 7)])
        role.remove_member(11)
        ack = store.accept(
            delta_sync_payload(role, role.owner_address, base), now=1.0
        )
        assert ack["status"] == "ok"
        record = store.get(role.position_id)
        keyword = next(iter(space.keywords_of((0, 7))))
        assert ((0, 7), 10) in record.search_matches(space, keyword, 20)
        for keyword in space.keywords_of((0, 9)):
            matches = record.search_matches(space, keyword, 20)
            assert all(key != (0, 9) for key, __ in matches)


# ---------------------------------------------------------------------------
# Split-brain search: provisional serves the cut, demotes without
# double-serving (section 5.4 + I2/I7)
# ---------------------------------------------------------------------------

class TestSplitBrainSearch:
    def _search_world(self):
        from repro.cdn.flower.search import KeywordSearchEngine, KeywordSpace

        world = replication_world()
        world.system.search_engine = KeywordSearchEngine(
            KeywordSpace(num_keywords=8)
        )
        return world

    def test_provisional_answers_scoped_searches_during_partition(self):
        from repro.net.message import Message

        world = self._search_world()
        space = world.system.search_engine.space
        client, registered = _register(world, key=(0, 5))
        claimant = world.arrive(website=0, locality=0)
        world.run(minutes(5))  # claimant registers as a content peer

        # Partition-side outcome: the registered holder is unreachable
        # and the claimant serves the slot provisionally.
        registered.crash()
        position = world.system.key_service.position_id(0, 0, 0)
        role = DirectoryRole(claimant.address, 0, 0, 0, position)
        role.add_member(client.address, [(0, 5)])
        DirectoryService(claimant, role).serve_provisionally()
        assert claimant.directory is role and role.provisional

        # Scoped replica-plane queries are answered authoritatively.
        keyword = next(iter(space.keywords_of((0, 5))))
        reply = claimant.handle_flower_search_replica(
            Message(
                src=client.address,
                dst=claimant.address,
                kind="flower.search_replica",
                payload={"position": position, "keyword": keyword},
            )
        )
        assert reply["status"] == "ok"
        assert reply["source"] == "takeover"
        assert reply["staleness_ms"] == 0.0
        assert ((0, 5), client.address) in [
            (tuple(k), a) for k, a in reply["matches"]
        ]

    def test_demoted_claimant_stops_serving_searches(self):
        from repro.net.message import Message

        world = self._search_world()
        space = world.system.search_engine.space
        client, registered = _register(world, key=(0, 5))
        claimant = world.arrive(website=0, locality=0)
        world.run(minutes(5))
        position = world.system.key_service.position_id(0, 0, 0)
        role = DirectoryRole(claimant.address, 0, 0, 0, position)
        role.add_member(client.address, [(0, 5)])
        DirectoryService(claimant, role).serve_provisionally()

        world.run(minutes(20))  # discovery + reconcile + demotion

        # The merge demoted the claimant (I2); only the registered holder
        # still answers the slot's searches -- no double-serving.
        assert claimant.directory is None
        keyword = next(iter(space.keywords_of((0, 5))))
        reply = claimant.handle_flower_search_replica(
            Message(
                src=client.address,
                dst=claimant.address,
                kind="flower.search_replica",
                payload={"position": position, "keyword": keyword},
            )
        )
        assert reply.get("source") != "takeover"
        world.sim.trace.record("flower.search_done")
        results = []
        client.search(keyword, results.append)
        world.run(seconds(30))
        assert any(key == (0, 5) for key, __ in results[0])
        done = world.sim.trace.events("flower.search_done")
        assert [e.payload["source"] for e in done] == ["directory"]
