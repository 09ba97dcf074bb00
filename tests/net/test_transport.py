"""Unit tests for the message transport: latency, liveness, RPC timeouts."""

import pytest

from repro.errors import TopologyError, TransportError
from repro.net.faults import FaultController
from repro.net.message import Message
from repro.net.topology import ExplicitTopology
from repro.net.transport import ACK, Network, NetworkNode
from repro.sim.engine import Simulator


MATRIX = [
    [0.0, 100.0, 250.0],
    [100.0, 0.0, 40.0],
    [250.0, 40.0, 0.0],
]


class Echo(NetworkNode):
    """Test node: records pings, echoes RPCs back."""

    def __init__(self, network):
        super().__init__(network)
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
# Deadline FIFOs: one armed heap entry per distinct timeout value, each
# timeout still firing at the (deadline, seq) its RPC reserved.
# ---------------------------------------------------------------------------


def armed_timeout_entries(sim, network):
    """Heap entries that are timeout events (live ones only)."""
    return sum(
        1 for entry in sim._queue._heap if entry[2] == network._fire_timeouts_cb
    )


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
    nodes[1].fail()
    fired = []
    armed = []

    def follow_up():
        fired.append(("follow-up", sim.now))

    def first():
        fired.append(("first", sim.now))
        nodes[0].rpc(1, "ping", on_timeout=follow_up, timeout_ms=300.0)
        armed.append(armed_timeout_entries(sim, network))

    nodes[0].rpc(1, "ping", on_timeout=first, timeout_ms=300.0)
    sim.schedule(
        100.0,
        lambda: nodes[0].rpc(
            1,
            "ping",
            on_timeout=lambda: fired.append(("second", sim.now)),
            timeout_ms=300.0,
        ),
    )
    sim.run(until=350.0)
    # "first" fired with "second" (deadline 400) waiting: the entry was
    # re-armed for it before the callback ran, so the callback's own RPC
    # (deadline 600) queued behind it without arming a second one.
    assert armed == [1]
    assert armed_timeout_entries(sim, network) == 1
    sim.run()
    assert fired == [("first", 300.0), ("second", 400.0), ("follow-up", 600.0)]
    assert armed_timeout_entries(sim, network) == 0


def test_timeout_callback_rearms_an_emptied_fifo():
    sim, network, nodes = make_network()
    nodes[1].fail()
    fired = []

    def first():
        nodes[0].rpc(1, "ping", on_timeout=lambda: fired.append(sim.now))

    nodes[0].rpc(1, "ping", on_timeout=first)
    sim.run(until=1500.0)
    assert armed_timeout_entries(sim, network) == 1
    sim.run()
    assert fired == [2000.0]


def test_answered_rpcs_leave_one_pending_event_not_one_each():
    sim, network, nodes = make_network()
    outcomes = []
    for __ in range(50):
        nodes[0].rpc(
            1,
            "ping",
            on_reply=lambda p: outcomes.append("reply"),
            on_timeout=lambda: outcomes.append("timeout"),
        )
    assert sim.pending_events == 50 + 1   # deliveries + one armed timeout
    sim.run(until=250.0)                  # every reply landed at t=200
    assert outcomes == ["reply"] * 50
    assert sim.pending_events == 1
    sim.run()
    assert outcomes == ["reply"] * 50
    # 50 deliveries + 50 replies + the single timeout entry, which found
    # only settled contexts behind it and armed nothing.
    assert sim.events_executed == 101
    assert not network._timeout_fifos[1000.0]


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


def test_reply_releases_the_callbacks_before_the_deadline():
    import weakref

    sim, network, nodes = make_network()

    def on_reply(payload):
        pass

    def on_timeout():
        pass

    released = [weakref.ref(on_reply), weakref.ref(on_timeout)]
    nodes[0].rpc(1, "ping", on_reply=on_reply, on_timeout=on_timeout)
    del on_reply, on_timeout
    sim.run(until=250.0)  # reply delivered at 200; the deadline is 1000
    assert len(network._timeout_fifos[1000.0]) == 1  # still queued ...
    assert [ref() for ref in released] == [None, None]  # ... holding nothing


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


class NeverDrops:
    """A loss RNG whose every draw is above any loss rate."""

    def random(self):
        return 1.0


def make_ack_network(fabric="bare"):
    """Nodes 0 and 1 are 100 ms apart; the default timeout is 1000 ms.
    ``"loss"`` and ``"faults"`` are fabrics on which a sent reply *may*
    fail to arrive -- although on these two it never does."""
    sim = Simulator(seed=1)
    network = Network(sim, ExplicitTopology(MATRIX), default_timeout_ms=1000.0)
    nodes = [Acker(network) for _ in range(3)]
    if fabric == "loss":
        network.configure_loss(0.5, NeverDrops())
    elif fabric == "faults":
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


def test_answered_ack_rpc_is_one_event_and_leaves_one_armed_entry():
    sim, network, nodes = make_ack_network()
    outcomes = []
    for __ in range(5):
        probe(sim, nodes[0], outcomes)
    sim.run(until=999.0)
    assert nodes[1].pings == [100.0] * 5
    assert outcomes == []
    assert network.messages_sent == 10        # the acks are still counted
    assert sim.events_executed == 5           # ... but only requests ran
    assert sim.pending_events == 1
    assert armed_timeout_entries(sim, network) == 1
    sim.run()
    # The armed entry found five settled contexts and armed nothing.
    assert sim.events_executed == 6
    assert outcomes == []
    assert not network._timeout_fifos[1000.0]


@pytest.mark.parametrize(
    "fabric, events", [("bare", 1), ("loss", 2), ("faults", 2)]
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
    faults = FaultController(sim, network)
    # Opens after the request landed (t=100), before the ack does (t=200).
    faults.schedule_partition(150.0, 500.0, group=frozenset({0}))
    outcomes = []
    probe(sim, nodes[0], outcomes)
    sim.run()
    assert nodes[1].pings == [100.0]
    assert network.drop_counts["partition"] == 1
    assert outcomes == [("timeout", 1000.0)]


@pytest.mark.parametrize(
    "timeout_ms, events, expected",
    [
        # The ack would land at t=200, before the deadline: elided.
        (200.5, 2, []),
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
    # request + armed timeout entry (+ the travelling ack)
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
    assert len(network._timeout_fifos[1000.0]) == 1  # still queued ...
    assert [ref() for ref in released] == [None, None]  # ... holding nothing


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
