"""Shared fixtures for the Chord tests: a host class and ring builders."""

from typing import Optional

import pytest

from repro.dht.node import ChordNode, deliver_route_result, route_step
from repro.dht.ring import ChordRing, RingParams
from repro.net.topology import UniformRandomTopology
from repro.net.transport import Network, NetworkNode
from repro.sim.engine import Simulator


class ChordHost(NetworkNode):
    """Minimal host: forwards every chord.* message to its Chord component."""

    def __init__(self, network):
        super().__init__(network)
        self.chord: Optional[ChordNode] = None

    def on_message(self, message):
        if message.kind == "chord.route":
            return route_step(self.chord, self, message)
        if message.kind == "chord.route_result":
            return deliver_route_result(self, message)
        if message.kind.startswith("chord."):
            return self.chord.on_message(message)
        return super().on_message(message)

    def fail(self):
        super().fail()
        if self.chord is not None:
            self.chord.shutdown()


class ChordWorld:
    """A simulator + network + one Chord ring, with helpers for tests."""

    def __init__(self, seed=1, params=None, latency=(10.0, 100.0)):
        self.sim = Simulator(seed=seed)
        self.topology = UniformRandomTopology(
            seed=seed, latency_min_ms=latency[0], latency_max_ms=latency[1]
        )
        self.network = Network(self.sim, self.topology)
        self.ring = ChordRing(
            params or RingParams(bits=16, maintenance_period_ms=5000.0)
        )
        self.hosts = []

    def add_node(self, node_id) -> ChordHost:
        host = ChordHost(self.network)
        host.chord = ChordNode(host, self.ring, node_id)
        self.hosts.append(host)
        return host

    def warm_ring(self, ids):
        hosts = [self.add_node(i) for i in ids]
        self.ring.warm_start([h.chord for h in hosts])
        return hosts

    def lookup_sync(self, host, key, start=None, horizon=600_000.0):
        """Run a lookup to completion and return its result."""
        results = []

        def done(result):
            results.append(result)
            self.sim.stop()

        host.chord.lookup(key, done, start=start)
        if not results:  # run() would clear a stop() made before it
            self.sim.run(until=self.sim.now + horizon)
        assert results, "lookup did not complete"
        return results[0]


@pytest.fixture
def world():
    return ChordWorld()
