"""Unit tests of the sharded execution layer's building blocks.

End-to-end shard-count invariance (the headline property) is pinned in
``tests/experiments/test_determinism.py``; this module covers the pieces in
isolation: the structured address codec, the canonical bus merge order, the
barrier-floor injection rule, the pure-function topology and the window
scheduler's lockstep sequencing.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, TransportError
from repro.net.message import Message
from repro.net.shardnet import (
    BLOCK_BITS,
    MAX_SHARDS,
    MSG,
    REPLY,
    ShardedBinner,
    ShardedNetwork,
    ShardedTopology,
    ShardMap,
    drain_outbox,
)
from repro.net.transport import ACK, NetworkNode
from repro.sim.engine import Simulator
from repro.sim.sharded import route_entries, run_windows, run_windows_parallel


# ------------------------------------------------------------------ ShardMap
class TestShardMap:
    def test_round_robin_locality_assignment(self):
        smap = ShardMap(num_shards=2, num_localities=4, num_websites=3)
        assert smap.localities_of(0) == (0, 2)
        assert smap.localities_of(1) == (1, 3)
        assert [smap.shard_of_locality(loc) for loc in range(4)] == [0, 1, 0, 1]

    def test_peer_address_roundtrip(self):
        smap = ShardMap(num_shards=2, num_localities=4, num_websites=3)
        for locality in range(4):
            shard = smap.shard_of_locality(locality)
            for index in (0, 1, smap.locality_capacity - 1):
                address = smap.peer_address(shard, locality, index)
                assert smap.shard_of_address(address) == shard
                assert smap.locality_of_address(address) == locality
                assert not smap.is_server_address(address)

    def test_server_addresses_precede_peers(self):
        smap = ShardMap(num_shards=2, num_localities=2, num_websites=3)
        for shard in range(2):
            for website in range(3):
                address = smap.server_address(shard, website)
                assert smap.shard_of_address(address) == shard
                assert smap.is_server_address(address)
                # Pinned to one of the shard's own localities.
                assert smap.locality_of_address(address) in smap.localities_of(shard)

    def test_seed_peer_address_is_per_locality_index_website(self):
        smap = ShardMap(num_shards=2, num_localities=4, num_websites=3)
        for website in range(3):
            for locality in range(4):
                shard = smap.shard_of_locality(locality)
                assert smap.seed_peer_address(website, locality) == smap.peer_address(
                    shard, locality, website
                )

    def test_capacity_exhaustion_is_a_transport_error(self):
        smap = ShardMap(num_shards=1, num_localities=1, num_websites=1)
        with pytest.raises(TransportError):
            smap.peer_address(0, 0, smap.locality_capacity)

    def test_locality_of_another_shard_is_a_transport_error(self):
        """Once a bare ``ValueError`` from ``tuple.index``."""
        smap = ShardMap(num_shards=2, num_localities=4, num_websites=3)
        with pytest.raises(TransportError, match="locality 1.*shard 0"):
            smap.peer_address(0, 1, 0)
        for locality in (-2, 4):  # congruent to shard 0, outside the map
            with pytest.raises(TransportError):
                smap.peer_address(0, locality, 0)

    @given(
        shards=st.integers(1, 12),
        per_shard=st.integers(1, 6),
        websites=st.integers(1, 40),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_address_codec_roundtrip_over_drawn_shapes(
        self, shards, per_shard, websites, data
    ):
        """Encode and decode are arithmetic inverses of each other and of
        the round-robin assignment ``localities_of`` enumerates."""
        smap = ShardMap(shards, shards * per_shard, websites)
        locality = data.draw(st.integers(0, smap.num_localities - 1))
        index = data.draw(st.integers(0, smap.locality_capacity - 1))
        shard = smap.shard_of_locality(locality)
        assert locality in smap.localities_of(shard)
        address = smap.peer_address(shard, locality, index)
        assert smap.shard_of_address(address) == shard
        assert smap.locality_of_address(address) == locality
        assert not smap.is_server_address(address)
        server = smap.server_address(shard, data.draw(st.integers(0, websites - 1)))
        assert smap.locality_of_address(server) in smap.localities_of(shard)

    @pytest.mark.parametrize(
        "shards,localities,websites",
        [
            (0, 4, 3),  # no shards
            (MAX_SHARDS + 1, MAX_SHARDS + 1, 3),  # beyond the packed space
            (5, 4, 3),  # more shards than localities
            (3, 4, 3),  # does not divide
            (1, 1, 1 << BLOCK_BITS),  # servers leave no room for peers
        ],
    )
    def test_invalid_shapes_raise_config_errors(self, shards, localities, websites):
        with pytest.raises(ConfigError):
            ShardMap(shards, localities, websites)

    def test_binner_decodes_exactly(self):
        smap = ShardMap(num_shards=2, num_localities=4, num_websites=2)
        binner = ShardedBinner(smap)
        assert binner.num_localities == 4
        address = smap.peer_address(1, 3, 7)
        assert binner.locality_of(address) == 3


# ------------------------------------------------------------- route_entries
class TestRouteEntries:
    @staticmethod
    def entry(arrival, dst_shard, label):
        return (MSG, arrival, dst_shard, label, "k", {}, 0, arrival, None)

    def test_merge_sorts_by_arrival_then_src_then_serial(self):
        outboxes = {
            1: [self.entry(30.0, 0, "b"), self.entry(10.0, 0, "c")],
            0: [self.entry(30.0, 1, "x"), self.entry(30.0, 0, "a")],
        }
        inboxes = route_entries(outboxes)
        # arrival leads: 10.0 before 30.0 even though serial order says otherwise.
        # Ties break by src shard (0 before 1), then by outbox position.
        assert [e[3] for e in inboxes[0]] == ["c", "a", "b"]
        assert [e[3] for e in inboxes[1]] == ["x"]

    def test_empty_outboxes_produce_no_inboxes(self):
        assert route_entries({0: [], 1: []}) == {}


# --------------------------------------------------- bus injection semantics
class _Recorder(NetworkNode):
    """Records (sim.now, payload) for every delivered ping."""

    def __init__(self, network, cluster_hint=None):
        super().__init__(network, cluster_hint)
        self.seen = []

    def handle_ping(self, message: Message):
        self.seen.append((self.sim.now, message.payload["tag"]))
        return {"ok": True}

    def handle_probe(self, message: Message):
        self.seen.append((self.sim.now, message.payload["tag"]))
        return ACK


def _shard0_world():
    smap = ShardMap(num_shards=2, num_localities=2, num_websites=1)
    sim = Simulator(seed=7)
    topology = ShardedTopology(smap, topology_seed=7)
    network = ShardedNetwork(sim, topology, smap, shard_id=0)
    node = _Recorder(network, cluster_hint=0)
    return smap, sim, network, node


class TestInjection:
    def test_arrivals_before_the_barrier_are_floored_to_it(self):
        smap, sim, network, node = _shard0_world()
        sim.run(until=150.0)
        entry = (MSG, 100.0, 0, node.address, "ping", {"tag": "early"}, 99, 50.0, None)
        network.inject_entries([entry], barrier=150.0)
        sim.run(until=1000.0)
        assert node.seen == [(150.0, "early")]

    def test_arrivals_after_the_barrier_keep_their_natural_time(self):
        smap, sim, network, node = _shard0_world()
        sim.run(until=150.0)
        entry = (MSG, 400.0, 0, node.address, "ping", {"tag": "late"}, 99, 50.0, None)
        network.inject_entries([entry], barrier=150.0)
        sim.run(until=1000.0)
        assert node.seen == [(400.0, "late")]

    def test_rpc_entry_generates_a_reply_entry(self):
        smap, sim, network, node = _shard0_world()
        sim.run(until=150.0)
        token = (1, 0)  # src shard 1, serial 0
        entry = (MSG, 100.0, 0, node.address, "ping", {"tag": "rpc"}, 99, 50.0, token)
        network.inject_entries([entry], barrier=150.0)
        sim.run(until=1000.0)
        assert node.seen == [(150.0, "rpc")]
        assert len(network.outbox) == 1
        tag, arrival, dst_shard, out_token, payload, replier = network.outbox[0]
        assert tag == REPLY
        assert dst_shard == 1 and out_token == token
        assert payload == {"ok": True}
        assert replier == node.address
        assert arrival > 150.0  # reply leg priced with the real link latency

    def test_an_ack_crosses_the_bus_as_a_reply_entry_and_is_the_sentinel_again(self):
        """A cross-shard RPC whose handler acks: the ack is an ordinary
        REPLY entry (so the bus carries what it always carried), survives
        the pickling a forked worker's pipe does to it as the same object,
        and settles the caller without a word to ``on_reply``."""
        smap = ShardMap(num_shards=2, num_localities=2, num_websites=1)
        sims, networks, nodes = [], [], []
        for shard in range(2):
            sims.append(Simulator(seed=7))
            networks.append(
                ShardedNetwork(
                    sims[shard], ShardedTopology(smap, topology_seed=7), smap, shard
                )
            )
            nodes.append(_Recorder(networks[shard], cluster_hint=shard))
        outcomes = []
        nodes[0].rpc(
            nodes[1].address,
            "probe",
            {"tag": "over"},
            on_reply=lambda p: outcomes.append("reply"),
            on_timeout=lambda: outcomes.append("timeout"),
        )
        sims[0].run(until=600.0)  # the link latency is at most 500 ms
        (request,) = drain_outbox(networks[0])
        sims[1].run(until=600.0)
        networks[1].inject_entries([pickle.loads(pickle.dumps(request))], 600.0)
        sims[1].run(until=601.0)
        assert nodes[1].seen == [(600.0, "over")]
        (reply,) = drain_outbox(networks[1])
        assert reply[0] == REPLY and reply[4] is ACK
        assert networks[1].messages_sent == 1  # the ack is a message
        reply = pickle.loads(pickle.dumps(reply))
        assert reply[4] is ACK
        sims[0].run(until=700.0)
        networks[0].inject_entries([reply], 700.0)
        sims[0].run()
        assert outcomes == []
        assert [n.bus_entries_out for n in networks] == [1, 1]
        assert not networks[0]._pending_remote

    def test_foreign_delivery_becomes_an_outbox_entry(self):
        smap, sim, network, node = _shard0_world()
        foreign = smap.peer_address(1, 1, 0)
        node.send(foreign, "ping", tag="out")
        sim.run(until=1000.0)
        assert node.seen == []
        assert len(network.outbox) == 1
        assert network.outbox[0][0] == MSG
        assert network.outbox[0][2] == 1  # dst shard
        assert network.bus_entries_out == 1


# ----------------------------------------------------------- ShardedTopology
class TestShardedTopology:
    def test_positions_are_pure_functions_of_seed_and_address(self):
        smap = ShardMap(num_shards=2, num_localities=4, num_websites=2)
        a = ShardedTopology(smap, topology_seed=42)
        b = ShardedTopology(smap, topology_seed=42)
        for locality in range(4):
            address = smap.peer_address(smap.shard_of_locality(locality), locality, 5)
            assert a.position(address) == b.position(address)
        other = ShardedTopology(smap, topology_seed=43)
        address = smap.peer_address(0, 0, 5)
        assert a.position(address) != other.position(address)

    def test_latency_is_symmetric_bounded_and_zero_on_self(self):
        smap = ShardMap(num_shards=2, num_localities=4, num_websites=2)
        topo = ShardedTopology(smap, topology_seed=1)
        addresses = [
            smap.peer_address(smap.shard_of_locality(loc), loc, i)
            for loc in range(4)
            for i in range(3)
        ]
        for a in addresses:
            assert topo.latency(a, a) == 0.0
            for b in addresses:
                if a == b:
                    continue
                lat = topo.latency(a, b)
                assert topo.latency(b, a) == lat
                assert topo.latency_min_ms <= lat <= topo.latency_max_ms

    def test_same_locality_pairs_are_nearer_than_cross_locality(self):
        smap = ShardMap(num_shards=4, num_localities=4, num_websites=2)
        topo = ShardedTopology(smap, topology_seed=3)
        near = topo.latency(smap.peer_address(0, 0, 0), smap.peer_address(0, 0, 1))
        far = topo.latency(smap.peer_address(0, 0, 0), smap.peer_address(2, 2, 0))
        assert near < far

    def test_duplicate_registration_rejected(self):
        smap = ShardMap(num_shards=1, num_localities=1, num_websites=1)
        topo = ShardedTopology(smap, topology_seed=1)
        topo.register(1000)
        with pytest.raises(ConfigError):
            topo.register(1000)


# ----------------------------------------------------------- window scheduler
class _FakeCell:
    """Scripted cell: forwards one entry per window, logs every call."""

    def __init__(self, shard_id, send_to, log):
        self.shard_id = shard_id
        self.send_to = send_to
        self.log = log
        self.now = 0.0
        self.received = []
        self.windows = 0

    def run_to(self, until_ms):
        self.log.append(("run", self.shard_id, until_ms))
        self.now = until_ms

    def drain(self):
        self.windows += 1
        return [(MSG, self.now, self.send_to, f"s{self.shard_id}w{self.windows}")]

    def inject(self, entries, barrier_ms):
        self.log.append(("inject", self.shard_id, barrier_ms, len(entries)))
        self.received.extend(e[3] for e in entries)

    def finalize(self):
        return {"shard_id": self.shard_id, "received": self.received}


class TestRunWindows:
    def test_lockstep_barriers_and_exchange(self):
        log = []
        cells = {0: _FakeCell(0, 1, log), 1: _FakeCell(1, 0, log)}
        results = run_windows(cells, horizon_ms=30.0, window_ms=10.0)
        # Three windows; exchanges happen after the first two barriers only
        # (the horizon barrier never injects -- nothing could run after it).
        assert results[0]["received"] == ["s1w1", "s1w2"]
        assert results[1]["received"] == ["s0w1", "s0w2"]
        run_calls = [item for item in log if item[0] == "run"]
        assert run_calls == [
            ("run", 0, 10.0),
            ("run", 1, 10.0),
            ("run", 0, 20.0),
            ("run", 1, 20.0),
            ("run", 0, 30.0),
            ("run", 1, 30.0),
        ]
        # Every inject sees the barrier it follows.
        assert [item for item in log if item[0] == "inject"] == [
            ("inject", 0, 10.0, 1),
            ("inject", 1, 10.0, 1),
            ("inject", 0, 20.0, 1),
            ("inject", 1, 20.0, 1),
        ]

    def test_what_exchange_returns_is_what_gets_injected(self):
        """The barrier step is a parameter: a forked worker's round trip
        to the hub stands where the in-process merge does."""
        log = []
        cells = {0: _FakeCell(0, 1, log), 1: _FakeCell(1, 0, log)}
        seen = []

        def exchange(outboxes):
            seen.append({sid: [e[3] for e in box] for sid, box in outboxes.items()})
            # Shard 1's inbox is scripted; shard 0 gets none at all.
            return {1: [(MSG, 0.0, 1, f"hub{len(seen)}")]}

        results = run_windows(cells, horizon_ms=30.0, window_ms=10.0, exchange=exchange)
        # Once per non-final barrier, with every hosted shard's outbox.
        assert seen == [
            {0: ["s0w1"], 1: ["s1w1"]},
            {0: ["s0w2"], 1: ["s1w2"]},
        ]
        assert results[0]["received"] == []
        assert results[1]["received"] == ["hub1", "hub2"]
        assert [item for item in log if item[0] == "inject"] == [
            ("inject", 0, 10.0, 0),
            ("inject", 1, 10.0, 1),
            ("inject", 0, 20.0, 0),
            ("inject", 1, 20.0, 1),
        ]

    def test_nonpositive_window_rejected(self):
        with pytest.raises(ConfigError):
            run_windows({}, horizon_ms=10.0, window_ms=0.0)

    def test_worker_count_must_divide_the_shard_map(self):
        with pytest.raises(ConfigError, match="divide"):
            run_windows_parallel(
                lambda ids: {}, num_shards=4, workers=3, horizon_ms=1.0, window_ms=1.0
            )
