"""Protocol tests for ChordNode: lookups, joins, stabilization, failures."""

import math
import weakref

import pytest

from repro.errors import DHTError
from repro.sim.clock import minutes, seconds

from tests.dht.conftest import ChordWorld


def true_successor(sorted_ids, key, size):
    for i in sorted_ids:
        if i >= key:
            return i
    return sorted_ids[0]


class TestLookups:
    def test_lookup_on_single_node_ring(self):
        world = ChordWorld()
        (host,) = world.warm_ring([100])
        result = world.lookup_sync(host, 55)
        assert result.ok
        assert result.found.id == 100
        assert result.hops == 0

    def test_lookup_resolves_correct_successor_for_many_keys(self):
        world = ChordWorld(seed=3)
        ids = sorted(world.sim.rng("ids").sample(range(2**16), 40))
        hosts = world.warm_ring(ids)
        rng = world.sim.rng("keys")
        for __ in range(30):
            key = rng.randrange(2**16)
            querier = hosts[rng.randrange(len(hosts))]
            result = world.lookup_sync(querier, key)
            assert result.ok
            assert result.found.id == true_successor(ids, key, 2**16)

    def test_lookup_hops_logarithmic(self):
        world = ChordWorld(seed=5)
        ids = sorted(world.sim.rng("ids").sample(range(2**16), 64))
        hosts = world.warm_ring(ids)
        rng = world.sim.rng("keys")
        hops = []
        for __ in range(40):
            key = rng.randrange(2**16)
            result = world.lookup_sync(hosts[rng.randrange(len(hosts))], key)
            hops.append(result.hops)
        mean_hops = sum(hops) / len(hops)
        # Chord resolves in ~log2(n)/2 hops; allow generous slack.
        assert mean_hops <= math.log2(64)
        assert max(hops) <= 2 * math.log2(64)

    def test_lookup_latency_accumulates_link_latencies(self):
        world = ChordWorld(seed=7)
        ids = sorted(world.sim.rng("ids").sample(range(2**16), 32))
        hosts = world.warm_ring(ids)
        result = world.lookup_sync(hosts[0], (hosts[0].chord.node_id + 2**15) % 2**16)
        assert result.hops > 0
        # one one-way link per hop plus the result message back
        assert result.latency_ms >= (result.hops + 1) * 10.0

    def test_lookup_key_ownership_includes_exact_id(self):
        world = ChordWorld()
        hosts = world.warm_ring([100, 200, 300])
        result = world.lookup_sync(hosts[0], 200)
        assert result.found.id == 200

    def test_lookup_from_non_member_requires_start(self):
        world = ChordWorld()
        world.warm_ring([100])
        outsider = world.add_node(55)
        with pytest.raises(DHTError):
            outsider.chord.lookup(7, lambda r: None)

    def test_lookup_from_non_member_with_start(self):
        world = ChordWorld(seed=11)
        ids = [100, 5000, 30000, 60000]
        hosts = world.warm_ring(ids)
        outsider = world.add_node(55)
        result = world.lookup_sync(outsider, 29000, start=hosts[0].address)
        assert result.ok
        assert result.found.id == 30000

    def test_lookup_survives_dead_finger(self):
        """A lookup whose first hop is dead reroutes around it and still
        resolves to the right live successor, paying the failure-detection
        timeout in latency and purging the dead entry."""
        world = ChordWorld(seed=13)
        ids = sorted(world.sim.rng("ids").sample(range(2**16), 32))
        hosts = world.warm_ring(ids)
        by_id = {h.chord.node_id: h for h in hosts}
        querier = hosts[0]
        # Kill the first hop the querier would use for a far key.
        key = (querier.chord.node_id + 2**15) % 2**16
        first_hop = querier.chord.closest_preceding(key)
        by_id[first_hop.id].fail()
        result = world.lookup_sync(querier, key)
        assert result.ok
        expected = true_successor(sorted(i for i in ids if i != first_hop.id), key, 2**16)
        assert result.found.id == expected
        assert result.latency_ms >= world.ring.params.rpc_timeout_ms
        assert all(f is None or f.id != first_hop.id for f in querier.chord.fingers)
        assert all(s.id != first_hop.id for s in querier.chord.successors)


class TestJoin:
    def test_join_via_bootstrap(self):
        world = ChordWorld(seed=2)
        hosts = world.warm_ring([1000, 20000, 50000])
        joiner = world.add_node(30000)
        outcome = []
        joiner.chord.join(
            hosts[0].address,
            on_joined=lambda: outcome.append("joined"),
            on_failed=lambda reason, holder: outcome.append(reason),
        )
        world.sim.run(until=seconds(30))
        assert outcome == ["joined"]
        assert joiner.chord.successor.id == 50000
        assert joiner.chord.joined

    def test_join_taken_position_detected(self):
        world = ChordWorld(seed=2)
        hosts = world.warm_ring([1000, 20000, 50000])
        usurper = world.add_node(20000)
        outcome = []
        usurper.chord.join(
            hosts[0].address,
            on_joined=lambda: outcome.append("joined"),
            on_failed=lambda reason, holder: outcome.append((reason, holder)),
        )
        world.sim.run(until=seconds(30))
        assert len(outcome) == 1
        reason, holder = outcome[0]
        assert reason == "taken"
        assert holder.id == 20000

    def test_concurrent_join_race_one_winner(self):
        """Two peers target the same vacant id; exactly one integrates
        (paper section 5.2.2)."""
        world = ChordWorld(seed=2)
        hosts = world.warm_ring([1000, 50000])
        racers = [world.add_node(20000), world.add_node(20000)]
        outcomes = {0: [], 1: []}
        for index, racer in enumerate(racers):
            racer.chord.join(
                hosts[0].address,
                on_joined=lambda i=index: outcomes[i].append("joined"),
                on_failed=lambda reason, holder, i=index: outcomes[i].append(reason),
            )
        world.sim.run(until=seconds(60))
        flat = outcomes[0] + outcomes[1]
        assert sorted(flat) == ["joined", "race"] or sorted(flat) == ["joined", "taken"]

    def test_refused_join_names_no_holder_at_another_identifier(self):
        """A joiner routed to a stale successor is refused because that
        successor's predecessor lies between them; the predecessor holds
        another identifier, so it is no race winner to follow."""
        world = ChordWorld(seed=2)
        hosts = world.warm_ring([1000, 40000, 50000])
        joiner = world.add_node(30000)
        outcome = []
        joiner.chord._finish_join(
            hosts[2].chord.ref,
            on_joined=lambda: outcome.append("joined"),
            on_failed=lambda reason, holder: outcome.append((reason, holder)),
        )
        world.sim.run(until=seconds(30))
        assert outcome == [("race", None)]
        assert not joiner.chord.joined

    def test_join_then_stabilization_integrates_fully(self):
        world = ChordWorld(seed=4)
        hosts = world.warm_ring([1000, 20000, 50000])
        joiner = world.add_node(30000)
        joiner.chord.join(hosts[0].address, lambda: None, lambda r, h: None)
        world.sim.run(until=minutes(3))
        # predecessor pointers must now reflect the newcomer
        by_id = {h.chord.node_id: h.chord for h in hosts + [joiner]}
        assert by_id[50000].predecessor.id == 30000
        assert by_id[30000].predecessor.id == 20000
        assert by_id[20000].successor.id == 30000

    def test_join_twice_rejected(self):
        world = ChordWorld()
        (host,) = world.warm_ring([5])
        with pytest.raises(DHTError):
            host.chord.create()

    def test_incremental_ring_construction(self):
        """Build a 12-node ring one join at a time; verify total order."""
        world = ChordWorld(seed=6)
        first = world.add_node(0)
        first.chord.create()
        ids = [0]
        rng = world.sim.rng("build")
        while len(ids) < 12:
            new_id = rng.randrange(2**16)
            if new_id in ids:
                continue
            joiner = world.add_node(new_id)
            done = []
            joiner.chord.join(first.address, lambda: done.append(1), lambda r, h: done.append(r))
            world.sim.run(until=world.sim.now + minutes(2))
            assert done == [1]
            ids.append(new_id)
        world.sim.run(until=world.sim.now + minutes(30))
        members = world.ring.active_members()
        sorted_ids = sorted(ids)
        for i, member in enumerate(members):
            assert member.node_id == sorted_ids[i]
            assert member.successor.id == sorted_ids[(i + 1) % len(sorted_ids)]


class TestStabilizationUnderChurn:
    def test_ring_heals_after_single_failure(self):
        world = ChordWorld(seed=8)
        ids = [0, 10000, 20000, 30000, 40000, 50000]
        hosts = world.warm_ring(ids)
        hosts[2].fail()  # kill 20000
        world.sim.run(until=minutes(3))
        survivor = hosts[1].chord
        assert survivor.successor.id == 30000
        # lookups route around the corpse
        result = world.lookup_sync(hosts[0], 15000)
        assert result.ok
        assert result.found.id == 30000

    def test_ring_survives_adjacent_failures(self):
        world = ChordWorld(seed=9)
        ids = list(range(0, 60000, 5000))
        hosts = world.warm_ring(ids)
        hosts[3].fail()
        hosts[4].fail()
        hosts[5].fail()
        world.sim.run(until=minutes(5))
        alive = [h for h in hosts if h.alive]
        alive_ids = sorted(h.chord.node_id for h in alive)
        for host in alive:
            assert host.chord.successor.id in alive_ids
        result = world.lookup_sync(alive[0], 17500)
        assert result.ok
        assert result.found.id == true_successor(alive_ids, 17500, 2**16)

    def test_predecessor_cleared_when_dead(self):
        world = ChordWorld(seed=10)
        hosts = world.warm_ring([0, 1000, 2000])
        hosts[0].fail()
        world.sim.run(until=minutes(3))
        assert hosts[1].chord.predecessor is None or hosts[1].chord.predecessor.id != 0

    def test_shutdown_idempotent(self):
        world = ChordWorld()
        (host,) = world.warm_ring([5])
        host.chord.shutdown()
        host.chord.shutdown()
        assert not host.chord.joined
        assert len(world.ring) == 0

    def test_shut_down_node_dies_by_refcount(self, refcount_only):
        """A node caches its own bound handlers and owns a process bound to
        it; shutdown lets go of both, so dropping the node frees it with
        the collector off."""
        world = ChordWorld(seed=8)
        hosts = world.warm_ring([0, 10000, 20000])
        world.sim.run(until=minutes(1))
        node = hosts[1].chord
        assert node._handler_cache  # it did answer its neighbours
        hosts[1].fail()  # shuts the node down
        world.sim.run(until=minutes(2))  # its last RPC contexts expire
        ref = weakref.ref(node)
        hosts[1].chord = node = None
        assert ref() is None
