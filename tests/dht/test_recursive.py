"""Tests for recursive (forwarded) Chord routing."""

import math

from repro.dht.ring import RingParams
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
