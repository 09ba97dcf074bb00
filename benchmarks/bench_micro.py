"""Micro-benchmarks of the substrates (genuine timing measurements).

These are classic pytest-benchmark loops over the hot inner operations of
the simulation: the event engine, Chord lookups on a warm ring, a Cyclon
shuffle round and the topology's latency metric.  They guard
against performance regressions that would make paper-scale runs (tens of
millions of events) impractical.
"""

import random

from repro.dht.ring import RingParams
from repro.net.topology import ClusteredTopology
from repro.sim.engine import Simulator

from tests.dht.conftest import ChordWorld


def test_event_engine_throughput(benchmark):
    """Schedule-and-run cost of 10k chained events."""

    def run():
        sim = Simulator(seed=1)
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 10_000:
                sim.schedule(1.0, tick)

        sim.schedule(1.0, tick)
        sim.run()
        return count[0]

    assert benchmark(run) == 10_000


def test_chord_lookup_warm_ring(benchmark):
    """One recursive lookup on a stabilized 128-node ring."""
    world = ChordWorld(
        seed=3,
        params=RingParams(bits=16, maintenance_period_ms=60_000.0),
    )
    ids = sorted(world.sim.rng("ids").sample(range(2**16), 128))
    hosts = world.warm_ring(ids)
    rng = world.sim.rng("bench")

    def run():
        key = rng.randrange(2**16)
        querier = hosts[rng.randrange(len(hosts))]
        return world.lookup_sync(querier, key)

    result = benchmark(run)
    assert result.ok


def test_topology_latency_metric(benchmark):
    topology = ClusteredTopology(random.Random(1), num_clusters=6)
    for address in range(500):
        topology.register(address)
    rng = random.Random(2)

    def run():
        total = 0.0
        for __ in range(1000):
            total += topology.latency(rng.randrange(500), rng.randrange(500))
        return total

    assert benchmark(run) > 0


def test_gossip_round(benchmark):
    """One full shuffle round-trip between two live peers."""
    from repro.gossip.cyclon import CyclonProtocol
    from repro.gossip.view import Contact, PartialView
    from repro.net.topology import UniformRandomTopology
    from repro.net.transport import Network, NetworkNode

    sim = Simulator(seed=1)
    network = Network(sim, UniformRandomTopology(seed=1, latency_max_ms=50.0))

    class Peer(NetworkNode):
        def __init__(self):
            super().__init__(network)
            self.view = PartialView(owner=self.address)
            self.protocol = CyclonProtocol(
                self, self.view, sim.rng(f"g{self.address}")
            )

        def handle_gossip_shuffle(self, message):
            return self.protocol.handle_shuffle(message)

    peers = [Peer() for __ in range(20)]
    for a, b in zip(peers, peers[1:]):
        a.view.add(Contact(b.address))

    def run():
        for peer in peers:
            peer.protocol.gossip_round()
        sim.run(until=sim.now + 1000.0)

    benchmark(run)


def _synthetic_outboxes(num_shards=8, entries_per_shard=500):
    """Realistic cross-shard bus traffic: chord-style payloads, mixed kinds."""
    from repro.net.shardnet import MSG, REPLY

    rng = random.Random(9)
    outboxes = {}
    for src in range(num_shards):
        outbox = []
        for serial in range(entries_per_shard):
            dst_shard = rng.randrange(num_shards - 1)
            if dst_shard >= src:
                dst_shard += 1
            arrival = round(rng.uniform(0.0, 250.0), 6)
            if serial % 3 == 2:
                outbox.append(
                    (REPLY, arrival, dst_shard, (dst_shard, serial),
                     {"successor": (rng.getrandbits(30), rng.getrandbits(19)),
                      "hops": serial % 5},
                     rng.getrandbits(19))
                )
            else:
                outbox.append(
                    (MSG, arrival, dst_shard, rng.getrandbits(19),
                     "chord.find_successor",
                     {"key": rng.getrandbits(30), "hops": serial % 5,
                      "origin": rng.getrandbits(19)},
                     rng.getrandbits(19), arrival - 100.0, (src, serial))
                )
        outboxes[src] = outbox
    return outboxes


def test_bus_route_entries_merge(benchmark):
    """Canonical (arrival, src, serial) merge of 4k boundary entries.

    This is the per-barrier cost the sharded scheduler pays in the parent
    hub -- the serial section of every window, so it bounds multi-worker
    scaling directly (Amdahl).
    """
    from repro.sim.sharded import route_entries

    outboxes = _synthetic_outboxes()
    total = sum(len(v) for v in outboxes.values())
    inboxes = benchmark(lambda: route_entries(outboxes))
    assert sum(len(v) for v in inboxes.values()) == total


def test_bus_entry_serialization(benchmark):
    """Pickle round-trip of one shard's outbox (the per-window IPC cost).

    Boundary entries are plain tuples of primitives by design; this tracks
    the serialization price per entry crossing a process boundary.
    """
    import pickle

    outbox = _synthetic_outboxes()[0]

    def run():
        return pickle.loads(pickle.dumps(outbox, protocol=pickle.HIGHEST_PROTOCOL))

    assert len(benchmark(run)) == len(outbox)
