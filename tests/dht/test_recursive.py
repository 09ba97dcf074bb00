"""Tests for recursive (forwarded) Chord routing."""

import math
import weakref

import pytest

from repro.dht.ring import RingParams
from repro.net.faults import FaultController
from repro.sim.clock import minutes, seconds

from tests.dht.conftest import ChordWorld


def recursive_world(seed=1, **params):
    defaults = dict(bits=16, maintenance_period_ms=5000.0)
    defaults.update(params)
    return ChordWorld(seed=seed, params=RingParams(**defaults))


def true_successor(sorted_ids, key):
    for i in sorted_ids:
        if i >= key:
            return i
    return sorted_ids[0]


def test_recursive_resolves_correct_successor():
    world = recursive_world(seed=3)
    ids = sorted(world.sim.rng("ids").sample(range(2**16), 40))
    hosts = world.warm_ring(ids)
    rng = world.sim.rng("keys")
    for __ in range(25):
        key = rng.randrange(2**16)
        result = world.lookup_sync(hosts[rng.randrange(len(hosts))], key)
        assert result.ok
        assert result.found.id == true_successor(ids, key)


def test_recursive_single_node():
    world = recursive_world()
    (host,) = world.warm_ring([100])
    result = world.lookup_sync(host, 55)
    assert result.ok and result.found.id == 100 and result.hops == 0
    assert result.latency_ms == 0.0


def test_recursive_latency_is_one_way_per_hop():
    """Each hop is one one-way link plus a single result message back:
    no round trip per hop, so ``hops + 1`` links bound the latency."""
    latency_min, latency_max = 10.0, 100.0  # ChordWorld's link latencies
    world = recursive_world(seed=5)
    ids = sorted(world.sim.rng("ids").sample(range(2**16), 48))
    hosts = world.warm_ring(ids)
    rng = world.sim.rng("keys")
    forwarded = 0
    for __ in range(30):
        result = world.lookup_sync(hosts[3], rng.randrange(2**16))
        assert result.ok
        links = result.hops + 1 if result.hops else 0
        assert links * latency_min <= result.latency_ms <= links * latency_max
        forwarded += result.hops > 0
    assert forwarded >= 20  # the bound was exercised, not vacuous


def test_recursive_hops_logarithmic():
    world = recursive_world(seed=7)
    ids = sorted(world.sim.rng("ids").sample(range(2**16), 64))
    hosts = world.warm_ring(ids)
    rng = world.sim.rng("keys")
    hops = []
    for __ in range(30):
        key = rng.randrange(2**16)
        hops.append(world.lookup_sync(hosts[rng.randrange(len(hosts))], key).hops)
    assert sum(hops) / len(hops) <= math.log2(64)


def test_recursive_from_non_member_with_start():
    world = recursive_world(seed=9)
    ids = [100, 5000, 30000, 60000]
    hosts = world.warm_ring(ids)
    outsider = world.add_node(55)
    result = world.lookup_sync(outsider, 29000, start=hosts[0].address)
    assert result.ok and result.found.id == 30000


def test_recursive_reroutes_around_dead_hop():
    """A dead first hop is detected by the missing per-hop ack; the origin
    purges it, reroutes, and the lookup still resolves correctly -- paying
    the failure-detection timeout in latency."""
    world = recursive_world(seed=11, recursive_timeout_ms=10_000.0)
    ids = sorted(world.sim.rng("ids").sample(range(2**16), 32))
    hosts = world.warm_ring(ids)
    by_id = {h.chord.node_id: h for h in hosts}
    querier = hosts[0]
    key = (querier.chord.node_id + 2**15) % 2**16
    first_hop = querier.chord.closest_preceding(key)
    by_id[first_hop.id].fail()
    result = world.lookup_sync(querier, key, horizon=minutes(5))
    assert result.ok
    alive_ids = sorted(i for i in ids if i != first_hop.id)
    assert result.found.id == true_successor(alive_ids, key)
    # the reroute cost at least one failure-detection timeout
    assert result.latency_ms >= world.ring.params.rpc_timeout_ms
    # the dead entry was reactively purged from the querier's tables
    assert all(
        f is None or f.id != first_hop.id for f in querier.chord.fingers
    )


def test_recursive_lookup_failure_when_ring_gone():
    world = recursive_world(seed=13, recursive_timeout_ms=1000.0, recursive_retries=1)
    hosts = world.warm_ring([100, 200])
    outsider = world.add_node(55)
    hosts[0].fail()
    hosts[1].fail()
    result = world.lookup_sync(outsider, 150, start=hosts[0].address, horizon=seconds(30))
    assert not result.ok


def test_recursive_join_works():
    world = recursive_world(seed=15)
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


# ---------------------------------------------------------------------------
# Hop acks and attempt deadlines that are not events
# ---------------------------------------------------------------------------

#: A maintenance period so long that no tick falls inside a test.
NO_MAINTENANCE = 1e12


def forwarding_world(fabric="bare", **params):
    """A warm 32-node ring without maintenance, its first host and a key
    half a ring away from it (so the lookup has hops to forward)."""
    world = recursive_world(seed=11, maintenance_period_ms=NO_MAINTENANCE, **params)
    if fabric == "faults":
        # Installed but never scheduling a window: a reply *may* now fail
        # to arrive, so hop acks travel as events of their own.
        FaultController(world.sim, world.network)
    ids = sorted(world.sim.rng("ids").sample(range(2**16), 32))
    hosts = world.warm_ring(ids)
    querier = hosts[0]
    key = (querier.chord.node_id + 2**15) % 2**16
    return world, querier, key


@pytest.mark.parametrize("fabric", ["bare", "faults"])
def test_crash_between_hop_delivery_and_ack_counts_no_reroute(fabric):
    """The origin crashes after its first hop took the route but before the
    ack is back, and the host revives inside ``rpc_timeout_ms``.  Its Chord
    node stays shut down: the hop's stale timeout (the travelling ack was
    lost on the dead host; the elided one had settled the hop already)
    must not repair that node's tables or count a reroute."""
    world, querier, key = forwarding_world(fabric)
    first_hop = querier.chord.closest_preceding(key)
    out = world.network.latency(querier.address, first_hop.address)
    back = world.network.latency(first_hop.address, querier.address)
    querier.chord.lookup(key, lambda result: None)
    world.sim.schedule(out + back / 2, querier.fail)
    world.sim.schedule(out + back + 1.0, querier.revive)
    world.sim.run(until=world.ring.params.rpc_timeout_ms + 100.0)
    assert querier.alive and not querier.chord.joined
    assert world.network.kind_counts["chord.route"] >= 1
    assert world.sim.trace.count("chord.route_reroute") == 0
    assert any(f is not None and f.id == first_hop.id for f in querier.chord.fingers)


def test_finished_lookup_attempts_are_not_events():
    """Five lookups at once: every event is a request or a result on the
    wire, plus the one armed entry of the lookup attempts' deadline FIFO --
    no ack, no hop deadline (a hop answered in time never arms one), no
    per-attempt deadline."""
    world, querier, key = forwarding_world()
    results = []
    for offset in range(5):
        querier.chord.lookup((key + 97 * offset) % 2**16, results.append)
    world.sim.run(until=seconds(30))
    assert len(results) == 5 and all(r.ok and r.hops > 0 for r in results)
    sent = world.network.kind_counts
    assert set(sent) == {"chord.route", "chord.route_result"}
    assert world.sim.events_executed == sum(sent.values()) + 1
    # Every hop's ack was counted as a message all the same.
    assert world.network.messages_sent == sum(sent.values()) + sent["chord.route"]


def test_lookup_retry_fires_at_the_position_its_attempt_reserved():
    """A genuine retry runs at ``(deadline, seq)`` of the attempt that timed
    out: after a plain event scheduled for that instant before the lookup
    began, before one scheduled after."""
    world = recursive_world(seed=13, recursive_timeout_ms=1000.0, recursive_retries=1)
    hosts = world.warm_ring([100, 200])
    outsider = world.add_node(55)
    hosts[0].fail()
    hosts[1].fail()
    sent = world.network.kind_counts
    seen, results = [], []
    world.sim.schedule(1000.0, lambda: seen.append(("before", sent["chord.route"])))
    outsider.chord.lookup(150, results.append, start=hosts[0].address)
    world.sim.schedule(1000.0, lambda: seen.append(("after", sent["chord.route"])))
    world.sim.run(until=seconds(30))
    assert seen == [("before", 1), ("after", 2)]
    (result,) = results
    assert not result.ok and result.timeouts == 2 and result.latency_ms == 2000.0


def test_finished_lookup_dies_by_refcount_once_its_deadline_passed(refcount_only):
    world, querier, key = forwarding_world()
    results = []
    querier.chord.lookup(key, results.append)
    (on_result,) = querier._chord_pending_lookups.values()
    lookup = weakref.ref(on_result.__self__)
    del on_result
    world.sim.run(until=world.ring.params.recursive_timeout_ms - 1.0)
    assert results and results[0].ok
    assert lookup() is not None  # finished, still waiting out its deadline
    world.sim.run(until=seconds(30))
    assert lookup() is None
