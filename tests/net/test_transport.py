"""Unit tests for the message transport: latency, liveness, RPC timeouts."""

import pytest

from repro.errors import TransportError
from repro.net.message import Message
from repro.net.topology import ExplicitTopology
from repro.net.transport import Network, NetworkNode
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
    assert len(network) == 3


def test_unknown_address_rejected():
    __, network, __ = make_network()
    with pytest.raises(TransportError):
        network.node(99)


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
    assert network.messages_dropped == 1


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
# Timeout FIFOs: one armed heap entry per distinct timeout value, each
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
