"""Unit tests for the message transport: latency, liveness, RPC timeouts."""

import pytest

from repro.errors import TopologyError, TransportError
from repro.net.faults import (
    FaultController,
    LatencySpikeSpec,
    PartitionSpec,
    UniformLossSpec,
)
from repro.net.message import Message
from repro.net.shardnet import ShardedNetwork, ShardedTopology, ShardMap, drain_outbox
from repro.net.topology import ExplicitTopology
from repro.net.transport import ACK, Network, NetworkNode, _Request
from repro.sim.engine import Simulator

from tests.conftest import arm_every_deadline_at_send


MATRIX = [
    [0.0, 100.0, 250.0],
    [100.0, 0.0, 40.0],
    [250.0, 40.0, 0.0],
]


class Echo(NetworkNode):
    """Test node: records pings, echoes RPCs back."""

    def __init__(self, network, cluster_hint=None):
        super().__init__(network, cluster_hint)
        self.pings = []

    def handle_ping(self, message):
        self.pings.append((self.sim.now, message.src, message.payload))
        return {"echo": message.payload.get("value"), "at": self.sim.now}


def make_network():
    sim = Simulator(seed=1)
    network = Network(sim, ExplicitTopology(MATRIX), default_timeout_ms=1000.0)
    nodes = [Echo(network) for _ in range(3)]
    return sim, network, nodes


def test_addresses_assigned_sequentially():
    __, network, nodes = make_network()
    assert [n.address for n in nodes] == [0, 1, 2]
    assert network.node(1) is nodes[1]
    assert network.node(2) is nodes[2]


def test_unknown_address_rejected():
    __, network, __ = make_network()
    with pytest.raises(TransportError):
        network.node(99)


class CountingTopology(ExplicitTopology):
    def __init__(self, matrix):
        super().__init__(matrix)
        self.asked = 0

    def latency(self, a, b):
        self.asked += 1
        return super().latency(a, b)


def test_latency_reads_through_the_link_cache():
    sim = Simulator(seed=1)
    topology = CountingTopology(MATRIX)
    network = Network(sim, topology)
    for __ in range(3):
        Echo(network)
    assert network.latency(0, 2) == 250.0
    assert network.latency(0, 2) == 250.0
    assert topology.asked == 1
    with pytest.raises(TopologyError):
        network.latency(0, 7)


def test_one_way_message_arrives_after_latency():
    sim, __, nodes = make_network()
    nodes[0].send(1, "ping", value=7)
    sim.run()
    assert nodes[1].pings == [(100.0, 0, {"value": 7})]


def test_message_from_dead_node_not_sent():
    sim, network, nodes = make_network()
    nodes[0].fail()
    nodes[0].send(1, "ping")
    sim.run()
    assert nodes[1].pings == []
    assert network.messages_sent == 0


def test_message_to_dead_node_dropped():
    sim, network, nodes = make_network()
    nodes[1].fail()
    nodes[0].send(1, "ping")
    sim.run()
    assert nodes[1].pings == []
    assert sum(network.drop_counts.values()) == 1


def test_dead_at_delivery_time_drops():
    """A node that dies while the message is in flight never receives it."""
    sim, __, nodes = make_network()
    nodes[0].send(1, "ping")       # delivery at t=100
    sim.schedule(50.0, nodes[1].fail)
    sim.run()
    assert nodes[1].pings == []


def test_missing_handler_raises():
    sim, __, nodes = make_network()
    nodes[0].send(1, "no.such.kind")
    with pytest.raises(TransportError):
        sim.run()


def test_rpc_round_trip_timing():
    sim, __, nodes = make_network()
    replies = []
    nodes[0].rpc(1, "ping", {"value": 3}, on_reply=lambda p: replies.append((sim.now, p)))
    sim.run()
    assert len(replies) == 1
    when, payload = replies[0]
    assert when == 200.0                       # 100 ms out + 100 ms back
    assert payload["echo"] == 3
    assert payload["at"] == 100.0              # handler ran at delivery time


def test_rpc_timeout_fires_when_destination_dead():
    sim, __, nodes = make_network()
    outcomes = []
    nodes[1].fail()
    nodes[0].rpc(
        1,
        "ping",
        on_reply=lambda p: outcomes.append("reply"),
        on_timeout=lambda: outcomes.append(("timeout", sim.now)),
    )
    sim.run()
    assert outcomes == [("timeout", 1000.0)]


def test_rpc_timeout_not_fired_after_reply():
    sim, __, nodes = make_network()
    outcomes = []
    nodes[0].rpc(
        1,
        "ping",
        on_reply=lambda p: outcomes.append("reply"),
        on_timeout=lambda: outcomes.append("timeout"),
    )
    sim.run()
    assert outcomes == ["reply"]


def test_rpc_custom_timeout():
    sim, __, nodes = make_network()
    outcomes = []
    nodes[1].fail()
    nodes[0].rpc(1, "ping", on_timeout=lambda: outcomes.append(sim.now), timeout_ms=300.0)
    sim.run()
    assert outcomes == [300.0]


def test_rpc_callbacks_suppressed_when_source_dies():
    sim, __, nodes = make_network()
    outcomes = []
    nodes[0].rpc(
        1,
        "ping",
        on_reply=lambda p: outcomes.append("reply"),
        on_timeout=lambda: outcomes.append("timeout"),
    )
    sim.schedule(150.0, nodes[0].fail)  # die before the reply lands at 200
    sim.run()
    assert outcomes == []


def test_rpc_reply_wins_even_if_timeout_shorter_than_round_trip():
    """If the timeout fires first, the late reply must be ignored."""
    sim, __, nodes = make_network()
    outcomes = []
    nodes[0].rpc(
        2,  # 250 ms each way -> reply at 500
        "ping",
        on_reply=lambda p: outcomes.append("reply"),
        on_timeout=lambda: outcomes.append("timeout"),
        timeout_ms=400.0,
    )
    sim.run()
    assert outcomes == ["timeout"]


def test_revive_restores_delivery():
    sim, __, nodes = make_network()
    nodes[1].fail()
    nodes[1].revive()
    nodes[0].send(1, "ping", value=1)
    sim.run()
    assert len(nodes[1].pings) == 1


def test_message_counters():
    sim, network, nodes = make_network()
    nodes[0].send(1, "ping")
    nodes[0].rpc(1, "ping", on_reply=lambda p: None)
    sim.run()
    # one one-way + one request + one reply
    assert network.messages_sent == 3


def test_message_repr_and_dataclass():
    msg = Message(src=1, dst=2, kind="ping", payload={"a": 1}, sent_at=5.0)
    assert msg.request_id is None
    assert "ping" in repr(msg)


# ---------------------------------------------------------------------------
# Deadlines: each timeout fires at the (deadline, seq) its RPC reserved.  A
# deadline that can win from the start waits in a FIFO per timeout value,
# with one armed heap entry per FIFO; any other becomes a heap entry only
# once some event learns that its timeout can win.
# ---------------------------------------------------------------------------


def armed_timeout_entries(sim, network):
    """Heap entries that are timeout events: FIFO heads and lazily armed
    requests (live entries only)."""
    return sum(
        1
        for entry in sim._heap
        if entry[2] == network._fire_timeouts_cb or entry[2] is _Request.fire_timeout
    )


#: A link of ``MATRIX`` (node 0 -> node 2) as long as the timeout below:
#: a request on it lands exactly at its deadline, so its timeout can win
#: from the start and it is armed in its FIFO at send.
EAGER_TIMEOUT_MS = 250.0


def test_interleaved_timeout_values_fire_in_deadline_then_seq_order():
    sim, __, nodes = make_network()
    nodes[1].fail()  # nothing is ever answered
    fired = []

    def call(label, timeout_ms):
        nodes[0].rpc(
            1,
            "ping",
            on_timeout=lambda: fired.append((label, sim.now)),
            timeout_ms=timeout_ms,
        )

    call("A", 300.0)                      # deadline 300
    call("B", 500.0)                      # deadline 500, reserved first
    sim.schedule(100.0, call, "C", 300.0)  # deadline 400
    sim.schedule(100.0, call, "D", 500.0)  # deadline 600
    # A plain event for t=500, scheduled between B's and E's reservations:
    # a per-RPC timeout event would run B, this marker, then E.
    sim.schedule(150.0, lambda: sim.schedule(350.0, fired.append, ("marker", 500.0)))
    sim.schedule(200.0, call, "E", 300.0)  # deadline 500, reserved after B
    sim.run()
    assert fired == [
        ("A", 300.0),
        ("C", 400.0),
        ("B", 500.0),
        ("marker", 500.0),
        ("E", 500.0),
        ("D", 600.0),
    ]


def test_timeout_callback_issuing_same_timeout_rpc_keeps_one_armed_entry():
    sim, network, nodes = make_network()
    nodes[2].fail()
    fired = []
    armed = []

    def eager(on_timeout):
        nodes[0].rpc(2, "ping", on_timeout=on_timeout, timeout_ms=EAGER_TIMEOUT_MS)

    def follow_up():
        fired.append(("follow-up", sim.now))

    def first():
        fired.append(("first", sim.now))
        eager(follow_up)
        armed.append(armed_timeout_entries(sim, network))

    eager(first)
    sim.schedule(100.0, eager, lambda: fired.append(("second", sim.now)))
    sim.run(until=300.0)
    # "first" fired with "second" (deadline 350) waiting: the entry was
    # re-armed for it before the callback ran, so the callback's own RPC
    # (deadline 500) queued behind it without arming a second one.
    assert armed == [1]
    assert armed_timeout_entries(sim, network) == 1
    assert len(network._timeout_fifos[EAGER_TIMEOUT_MS]) == 2
    sim.run()
    assert fired == [("first", 250.0), ("second", 350.0), ("follow-up", 500.0)]
    assert armed_timeout_entries(sim, network) == 0
    # 3 deliveries to the dead node (each at its deadline, ranked after
    # it) + the scheduled call + 3 timeouts.
    assert sim.events_executed == 3 + 1 + 3


def test_timeout_callback_rearms_an_emptied_fifo():
    sim, network, nodes = make_network()
    nodes[2].fail()
    fired = []

    def first():
        nodes[0].rpc(
            2, "ping", on_timeout=lambda: fired.append(sim.now),
            timeout_ms=EAGER_TIMEOUT_MS,
        )

    nodes[0].rpc(2, "ping", on_timeout=first, timeout_ms=EAGER_TIMEOUT_MS)
    sim.run(until=400.0)
    assert armed_timeout_entries(sim, network) == 1
    assert len(network._timeout_fifos[EAGER_TIMEOUT_MS]) == 1
    sim.run()
    assert fired == [500.0]


def test_answered_rpcs_arm_no_deadline():
    sim, network, nodes = make_network()
    outcomes = []
    for __ in range(50):
        nodes[0].rpc(
            1,
            "ping",
            on_reply=lambda p: outcomes.append("reply"),
            on_timeout=lambda: outcomes.append("timeout"),
        )
    assert sim.pending_events == 50       # deliveries only
    sim.run(until=250.0)                  # every reply landed at t=200
    assert outcomes == ["reply"] * 50
    assert sim.pending_events == 0
    sim.run()
    assert outcomes == ["reply"] * 50
    # 50 deliveries + 50 replies: no deadline was ever an event, nor
    # waited in a FIFO.
    assert sim.events_executed == 100
    assert not network._timeout_fifos


def test_dead_source_timeout_stays_suppressed_and_does_not_block_the_fifo():
    sim, __, nodes = make_network()
    nodes[1].fail()
    outcomes = []
    nodes[0].rpc(1, "ping", on_timeout=lambda: outcomes.append("dead source"))
    sim.schedule(
        50.0,
        lambda: nodes[2].rpc(1, "ping", on_timeout=lambda: outcomes.append(sim.now)),
    )
    sim.schedule(150.0, nodes[0].fail)
    sim.run()
    assert outcomes == [1050.0]


def two_shards():
    """Two one-locality shards with one ``Echo`` node each; tests drive the
    bus between them by hand, as the window scheduler would."""
    smap = ShardMap(num_shards=2, num_localities=2, num_websites=1)
    sims = [Simulator(seed=7) for __ in range(2)]
    networks = [
        ShardedNetwork(sims[shard], ShardedTopology(smap, topology_seed=7), smap, shard)
        for shard in range(2)
    ]
    nodes = [Echo(networks[shard], cluster_hint=shard) for shard in range(2)]
    return sims, networks, nodes


def test_reply_releases_the_callbacks_before_the_deadline(refcount_only):
    """A request that leaves its shard is armed at send: it still waits in
    its deadline FIFO after the reply entry settled it, holding nothing."""
    import weakref

    sims, networks, nodes = two_shards()

    def on_reply(payload):
        pass

    def on_timeout():
        pass

    released = [weakref.ref(on_reply), weakref.ref(on_timeout)]
    nodes[0].rpc(nodes[1].address, "ping", on_reply=on_reply, on_timeout=on_timeout)
    del on_reply, on_timeout
    sims[0].run(until=600.0)  # the link latency is at most 500 ms
    requests = drain_outbox(networks[0])
    sims[1].run(until=600.0)
    networks[1].inject_entries(requests, 600.0)
    sims[1].run(until=601.0)
    replies = drain_outbox(networks[1])
    networks[0].inject_entries(replies, 600.0)
    sims[0].run(until=1200.0)  # the reply settled it; the deadline is 2000
    assert len(nodes[1].pings) == 1
    assert len(networks[0]._timeout_fifos[2000.0]) == 1  # still queued ...
    assert [ref() for ref in released] == [None, None]  # ... holding nothing


# ---------------------------------------------------------------------------
# Lazy arming: every event that learns a timeout can win arms it, at the
# (deadline, seq) its RPC reserved -- the rank an eagerly armed deadline has.
# ---------------------------------------------------------------------------


class PricesAnyAddress(ExplicitTopology):
    """``ExplicitTopology`` that prices links to unregistered addresses
    too, so a request can be sent to an address no node holds."""

    def latency(self, a, b):
        return self._matrix[a][b]


#: ``MATRIX`` plus address 3, which no node registers.
MATRIX_4 = [row + [300.0] for row in MATRIX] + [[300.0, 300.0, 300.0, 0.0]]


def fail_at(when, node_index):
    def setup(sim, network, nodes):
        sim.schedule_at(when, nodes[node_index].fail)

    return setup


def down_between(fail_ms, revive_ms):
    def setup(sim, network, nodes):
        sim.schedule_at(fail_ms, nodes[0].fail)
        sim.schedule_at(revive_ms, nodes[0].revive)

    return setup


def cut_off_node_0(sim, network, start_ms, heal_ms):
    """Partition node 0 (locality 0; nobody else has one) from the rest."""
    FaultController(sim, network, locality_of={0: 0}.get).apply(
        [PartitionSpec(locality=0, start_ms=start_ms, heal_ms=heal_ms)]
    )


def partition_window(start_ms, heal_ms):
    def setup(sim, network, nodes):
        cut_off_node_0(sim, network, start_ms, heal_ms)

    return setup


class Draws:
    """A loss stream whose every draw is *value*."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def certain_loss(sim, network, nodes):
    FaultController(sim, network).apply([UniformLossSpec(0.5)])
    network.faults.loss_rng = Draws(0.0)


def spike_to_the_timeout(sim, network, nodes):
    # Link 0 -> 1 is 100 ms; +900 ms makes it exactly the 1000 ms timeout.
    FaultController(sim, network).apply(
        [LatencySpikeSpec(0.0, 500.0, additive_ms=900.0)]
    )


def single_fabric(setup, dst, timeout_ms):
    """Node 0 sends one RPC at t=0 after *setup*; two markers share its
    deadline instant, scheduled just before and just after the send."""

    def run(eager):
        sim = Simulator(seed=1)
        network = Network(sim, PricesAnyAddress(MATRIX_4), default_timeout_ms=1000.0)
        nodes = [Echo(network) for _ in range(3)]
        if eager:
            arm_every_deadline_at_send(network)
        if setup is not None:
            setup(sim, network, nodes)
        log = []
        sim.schedule_at(timeout_ms, log.append, ("before", timeout_ms))
        nodes[0].rpc(
            dst,
            "ping",
            on_reply=lambda p: log.append(("reply", sim.now)),
            on_timeout=lambda: log.append(("timeout", sim.now)),
            timeout_ms=timeout_ms,
        )
        sim.schedule_at(timeout_ms, log.append, ("after", timeout_ms))
        sim.run()
        return log, network

    return run


def cross_shard(eager):
    """Node 0 of shard 0 asks the dead node of shard 1: no reply entry ever
    comes back over the bus."""
    sims, networks, nodes = two_shards()
    nodes[1].fail()
    if eager:
        arm_every_deadline_at_send(networks[0])
    sim, log = sims[0], []
    deadline = networks[0].default_timeout_ms
    sim.schedule_at(deadline, log.append, ("before", deadline))
    nodes[0].rpc(
        nodes[1].address,
        "ping",
        on_reply=lambda p: log.append(("reply", sim.now)),
        on_timeout=lambda: log.append(("timeout", sim.now)),
    )
    sim.schedule_at(deadline, log.append, ("after", deadline))
    sim.run(until=600.0)  # the link latency is at most 500 ms
    entries = drain_outbox(networks[0])
    sims[1].run(until=600.0)
    networks[1].inject_entries(entries, 600.0)
    sims[1].run()
    assert not drain_outbox(networks[1])  # dropped: no reply entry
    sim.run()
    return log, networks[0]


def timed_out_at(deadline):
    return [("before", deadline), ("timeout", deadline), ("after", deadline)]


#: case -> (world, whether the deadline enters its FIFO at send, the log).
ARMING_TRIGGERS = {
    "dead destination": (
        single_fabric(fail_at(0.0, 1), 1, 1000.0), False, timed_out_at(1000.0)
    ),
    "unknown destination": (
        single_fabric(None, 3, 1000.0), True, timed_out_at(1000.0)
    ),
    "partition cut": (
        single_fabric(partition_window(50.0, 150.0), 1, 1000.0),
        False,
        timed_out_at(1000.0),
    ),
    "loss": (single_fabric(certain_loss, 1, 1000.0), False, timed_out_at(1000.0)),
    "latency spike to the timeout": (
        single_fabric(spike_to_the_timeout, 1, 1000.0), True, timed_out_at(1000.0)
    ),
    "reply after the deadline": (
        single_fabric(None, 1, 150.0), False, timed_out_at(150.0)
    ),
    "reply at the deadline": (
        single_fabric(None, 1, 200.0), False, timed_out_at(200.0)
    ),
    "dropped reply": (
        single_fabric(partition_window(150.0, 500.0), 1, 1000.0),
        False,
        timed_out_at(1000.0),
    ),
    "caller down at the reply, revived in time": (
        single_fabric(down_between(150.0, 500.0), 1, 1000.0),
        False,
        timed_out_at(1000.0),
    ),
    "caller down through the deadline": (
        single_fabric(fail_at(150.0, 0), 1, 1000.0),
        False,
        [("before", 1000.0), ("after", 1000.0)],
    ),
    "cross-shard request": (cross_shard, True, timed_out_at(2000.0)),
}


@pytest.mark.parametrize("case", list(ARMING_TRIGGERS))
def test_a_deadline_fires_where_an_eagerly_armed_one_would(case):
    """The timeout fires at its deadline, between the marker scheduled just
    before the send and the one just after -- the rank its reserved
    sequence number gives it -- exactly as in the same world with every
    deadline armed at send.  Arming under a sequence number taken later
    would run it after the second marker."""
    world, at_send, expected = ARMING_TRIGGERS[case]
    lazy_log, network = world(eager=False)
    eager_log, __ = world(eager=True)
    assert lazy_log == eager_log == expected
    # Only a timeout that can win from the start, or a request that leaves
    # the fabric, ever enters a FIFO; every other one is armed late.
    assert bool(network._timeout_fifos) is at_send


# ---------------------------------------------------------------------------
# ACK: the reply that settles a call and says nothing.  ``on_reply`` never
# hears it; where it cannot be lost, delayed or outrun it is no event.
# ---------------------------------------------------------------------------


class Acker(Echo):
    """Acks ``probe`` -- or, told to refuse, answers it in words."""

    refuse = False

    def handle_probe(self, message):
        self.pings.append(self.sim.now)
        return {"ok": False} if self.refuse else ACK


def make_ack_network(fabric="bare"):
    """Nodes 0 and 1 are 100 ms apart; the default timeout is 1000 ms.
    ``"faults"`` is a fabric on which a sent reply *may* fail to arrive --
    although on this one it never does."""
    sim = Simulator(seed=1)
    network = Network(sim, ExplicitTopology(MATRIX), default_timeout_ms=1000.0)
    nodes = [Acker(network) for _ in range(3)]
    if fabric == "faults":
        FaultController(sim, network)  # installed, no window scheduled
    return sim, network, nodes


def probe(sim, node, outcomes, **kwargs):
    node.rpc(
        1,
        "probe",
        on_reply=lambda p: outcomes.append(("reply", p, sim.now)),
        on_timeout=lambda: outcomes.append(("timeout", sim.now)),
        **kwargs,
    )


def test_answered_ack_rpc_is_one_event_and_arms_no_deadline():
    sim, network, nodes = make_ack_network()
    outcomes = []
    for __ in range(5):
        probe(sim, nodes[0], outcomes)
    sim.run(until=999.0)
    assert nodes[1].pings == [100.0] * 5
    assert outcomes == []
    assert network.messages_sent == 10        # the acks are still counted
    assert sim.events_executed == 5           # ... but only requests ran
    assert sim.pending_events == 0            # ... and no deadline waits
    sim.run()
    assert sim.events_executed == 5
    assert outcomes == []
    assert not network._timeout_fifos


@pytest.mark.parametrize(
    "fabric, events", [("bare", 1), ("faults", 2)]
)
def test_on_reply_is_not_called_for_an_ack_elided_or_travelling(fabric, events):
    sim, network, nodes = make_ack_network(fabric)
    outcomes = []
    probe(sim, nodes[0], outcomes)
    sim.run(until=999.0)
    assert sim.events_executed == events      # says whether the ack travelled
    assert network.messages_sent == 2
    sim.run()
    assert outcomes == []                     # settled: no reply, no timeout


def test_negative_reply_is_still_delivered():
    sim, network, nodes = make_ack_network()
    nodes[1].refuse = True
    outcomes = []
    probe(sim, nodes[0], outcomes)
    sim.run()
    assert outcomes == [("reply", {"ok": False}, 200.0)]


def test_travelling_ack_can_be_lost_to_an_installed_fault_window():
    sim, network, nodes = make_ack_network()
    # Opens after the request landed (t=100), before the ack does (t=200).
    cut_off_node_0(sim, network, 150.0, 500.0)
    outcomes = []
    probe(sim, nodes[0], outcomes)
    sim.run()
    assert nodes[1].pings == [100.0]
    assert network.drop_counts["partition"] == 1
    assert outcomes == [("timeout", 1000.0)]


@pytest.mark.parametrize(
    "timeout_ms, events, expected",
    [
        # The ack would land at t=200, before the deadline: elided, and
        # the deadline is never armed.
        (200.5, 1, []),
        # It would tie with the deadline, and the timeout owns the lower
        # sequence number: the ack travels and arrives too late.
        (200.0, 3, [("timeout", 200.0)]),
        (150.0, 3, [("timeout", 150.0)]),
    ],
)
def test_ack_due_at_or_after_the_deadline_travels_and_loses(
    timeout_ms, events, expected
):
    sim, network, nodes = make_ack_network()
    outcomes = []
    probe(sim, nodes[0], outcomes, timeout_ms=timeout_ms)
    sim.run()
    assert outcomes == expected
    # request (+ the deadline, armed when the ack was found to be too
    # late, + the travelling ack)
    assert sim.events_executed == events


def test_elided_ack_releases_the_callbacks_at_delivery(refcount_only):
    import weakref

    sim, network, nodes = make_ack_network()

    def on_reply(payload):
        pass

    def on_timeout():
        pass

    released = [weakref.ref(on_reply), weakref.ref(on_timeout)]
    nodes[0].rpc(1, "probe", on_reply=on_reply, on_timeout=on_timeout)
    del on_reply, on_timeout
    sim.run(until=150.0)  # the request landed at 100; the deadline is 1000
    assert sim.pending_events == 0  # the deadline was never armed ...
    assert [ref() for ref in released] == [None, None]  # ... and nothing is held


# ---------------------------------------------------------------------------
# arm_deadline: the same FIFOs for any record, not only RPC contexts.
# ---------------------------------------------------------------------------


class Deadline:
    """The least a deadline record is."""

    def __init__(self, label, fired, sim):
        self.label, self.fired, self.sim = label, fired, sim
        self.settled = False

    def fire_timeout(self):
        self.settled = True
        self.fired.append((self.label, self.sim.now))


def test_settled_deadline_is_no_event_and_a_live_one_keeps_its_position():
    sim, network, nodes = make_ack_network()
    nodes[1].fail()
    fired = []
    records = {label: Deadline(label, fired, sim) for label in "ABCD"}

    def arm(label, timeout_ms):
        network.arm_deadline(timeout_ms, records[label])

    arm("A", 300.0)                       # deadline 300: the armed head
    sim.schedule(100.0, arm, "B", 300.0)  # deadline 400, settled at 150
    sim.schedule(150.0, setattr, records["B"], "settled", True)
    # An RPC timeout and a plain event share C's instant, reserved before
    # and after it: the three must run in reservation order.
    sim.schedule(
        200.0,
        lambda: nodes[0].rpc(
            1, "probe", on_timeout=lambda: fired.append(("rpc", sim.now)),
            timeout_ms=300.0,
        ),
    )
    sim.schedule(200.0, arm, "C", 300.0)  # deadline 500
    sim.schedule(200.0, lambda: sim.schedule(300.0, fired.append, ("marker", 500.0)))
    sim.schedule(250.0, arm, "D", 300.0)  # deadline 550, settled at once
    sim.schedule(250.0, setattr, records["D"], "settled", True)
    sim.run()
    assert fired == [
        ("A", 300.0),
        ("rpc", 500.0),
        ("C", 500.0),
        ("marker", 500.0),
    ]
    assert (records["C"].deadline, records["D"].deadline) == (500.0, 550.0)
    # 7 scheduled calls + the marker + the request that found node 1 dead,
    # and three timeout entries (A, the RPC, C): B and D were none.
    assert sim.events_executed == 7 + 1 + 1 + 3
    assert not network._timeout_fifos[300.0]


def test_deadline_record_dies_by_refcount_once_its_deadline_passed(refcount_only):
    import weakref

    sim, network, nodes = make_ack_network()
    fired = []
    live, settled = Deadline("live", fired, sim), Deadline("settled", fired, sim)
    refs = [weakref.ref(live), weakref.ref(settled)]
    network.arm_deadline(300.0, live)
    network.arm_deadline(300.0, settled)
    settled.settled = True
    del live, settled
    sim.run()
    assert fired == [("live", 300.0)]
    assert [ref() for ref in refs] == [None, None]
