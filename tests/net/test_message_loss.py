"""Tests for the message-loss fault model."""

import weakref

import pytest

from repro.errors import ConfigError, TransportError
from repro.net.faults import FaultController, UniformLossSpec
from repro.net.topology import ExplicitTopology
from repro.net.transport import ACK, Network, NetworkNode
from repro.sim.engine import Simulator


class Responder(NetworkNode):
    def __init__(self, network):
        super().__init__(network)
        self.received = 0

    def handle_ping(self, message):
        self.received += 1
        return {"ok": True}


def make_pair(loss=0.0, seed=1, answering=Responder):
    sim = Simulator(seed=seed)
    network = Network(
        sim, ExplicitTopology([[0.0, 10.0], [10.0, 0.0]]), default_timeout_ms=100.0
    )
    if loss:
        lossy(network, loss)
    return sim, network, Responder(network), answering(network)


def lossy(network, rate, draws=None):
    """Install uniform loss at *rate*; *draws* scripts the loss stream."""
    controller = FaultController(network.sim, network)
    controller.apply([UniformLossSpec(rate)])
    if draws is not None:
        controller.loss_rng = ScriptedRng(draws)
    return controller


def test_loss_rate_validated():
    for rate in (1.0, 1.5, -0.1):
        with pytest.raises(ConfigError):
            UniformLossSpec(rate)


def test_loss_rate_config_validated():
    """A config read back from a reproducer bundle checks its rate too."""
    from repro.chaos.runner import config_from_dict, config_to_dict
    from repro.experiments.config import ExperimentConfig

    data = config_to_dict(
        ExperimentConfig.scaled(fault_schedule=(UniformLossSpec(0.5),))
    )
    assert config_from_dict(data).fault_schedule == (UniformLossSpec(0.5),)
    data["fault_schedule"][0]["rate"] = 1.0
    with pytest.raises(ConfigError):
        config_from_dict(data)


def test_total_loss_drops_everything():
    sim, network, a, b = make_pair(loss=0.999999999)
    outcomes = []
    for __ in range(20):
        a.rpc(b.address, "ping", {}, on_reply=lambda p: outcomes.append("reply"),
              on_timeout=lambda: outcomes.append("timeout"))
    sim.run()
    assert outcomes == ["timeout"] * 20
    assert b.received == 0
    assert sum(network.drop_counts.values()) == 20


def test_zero_loss_drops_nothing():
    sim, network, a, b = make_pair(loss=0.0)
    for __ in range(20):
        a.send(b.address, "ping")
    sim.run()
    assert b.received == 20
    assert sum(network.drop_counts.values()) == 0


def test_partial_loss_statistics():
    sim, network, a, b = make_pair(loss=0.5, seed=9)
    for __ in range(400):
        a.send(b.address, "ping")
    sim.run()
    assert 140 < b.received < 260  # ~200 expected


def test_replies_can_be_lost_too():
    """With loss only striking after the request got through, the handler
    runs but the caller still times out."""
    sim, network, a, b = make_pair(loss=0.35, seed=4)
    outcomes = []
    for __ in range(200):
        a.rpc(b.address, "ping", {}, on_reply=lambda p: outcomes.append("reply"),
              on_timeout=lambda: outcomes.append("timeout"))
    sim.run()
    assert outcomes.count("timeout") > 50
    # some handlers ran even though the caller saw a timeout
    assert b.received > outcomes.count("reply")


def test_flower_functions_under_lossy_network():
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_experiment

    config = ExperimentConfig.scaled(
        population=80,
        duration_hours=2.0,
        num_websites=4,
        num_active_websites=2,
        num_localities=2,
        objects_per_website=25,
        fault_schedule=(UniformLossSpec(0.05),),
    )
    result = run_experiment("flower", config, seed=19)
    assert result.queries > 50
    assert result.hit_ratio > 0.0  # degraded, but alive
    assert result.extra["fault_stats"] == {}  # uniform drops are not tallied there


def test_a_schedule_carries_one_uniform_loss_rate():
    sim, network, __, __ = make_pair()
    controller = FaultController(sim, network)
    with pytest.raises(TransportError, match="only one uniform loss rate"):
        controller.apply([UniformLossSpec(0.1), UniformLossSpec(0.2)])


# ---------------------------------------------------------------------------
# retrying_rpc edge cases under injected faults
# ---------------------------------------------------------------------------

class ScriptedRng:
    """Plays back a fixed sequence of uniform draws, then never drops."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0) if self.values else 1.0


def test_retry_survives_lost_request():
    """First request dropped mid-flight; the retry gets through."""
    sim, network, a, b = make_pair()
    lossy(network, 0.5, [0.1])  # drop only attempt 1
    outcomes = []
    a.retrying_rpc(
        b.address,
        "ping",
        {},
        on_reply=lambda p: outcomes.append("reply"),
        on_give_up=lambda: outcomes.append("give_up"),
        retries=2,
    )
    sim.run()
    assert outcomes == ["reply"]
    assert b.received == 1  # attempt 1 never reached the handler
    assert network.drop_counts["loss"] == 1
    assert sim.trace.count("net.rpc_retry") == 1


def test_retry_survives_lost_reply():
    """Reply (not request) lost mid-flight: the handler runs twice but the
    caller still ends with exactly one reply."""
    sim, network, a, b = make_pair()
    # Draw 1: request 1 delivered.  Draw 2: reply 1 dropped.  Then clean.
    lossy(network, 0.5, [0.9, 0.1])
    outcomes = []
    a.retrying_rpc(
        b.address,
        "ping",
        {},
        on_reply=lambda p: outcomes.append("reply"),
        on_give_up=lambda: outcomes.append("give_up"),
        retries=2,
    )
    sim.run()
    assert outcomes == ["reply"]
    assert b.received == 2  # both requests reached the handler
    assert network.drop_counts["loss"] == 1


def test_retry_budget_exhaustion_fires_give_up_once():
    """Destination crashed while requests were in flight: every attempt
    hits a dead destination, and only after the whole budget is spent does
    on_give_up fire (the moment protocol code falls back to the origin)."""
    sim, network, a, b = make_pair()
    b.fail()
    outcomes = []
    a.retrying_rpc(
        b.address,
        "ping",
        {},
        on_reply=lambda p: outcomes.append("reply"),
        on_give_up=lambda: outcomes.append("give_up"),
        retries=2,
    )
    sim.run()
    assert outcomes == ["give_up"]
    assert b.received == 0
    assert network.drop_counts["dead_dst"] == 3  # 1 try + 2 retries
    assert sim.trace.count("net.rpc_retry") == 2


def test_destination_crash_between_request_and_reply():
    """The destination dies after handling the request but before the reply
    lands: the reply was already in flight, so it still arrives (the
    handler's last words), exactly like a real socket."""
    class DyingResponder(Responder):
        def handle_ping(self, message):
            reply = super().handle_ping(message)
            self.fail()  # crash immediately after replying
            return reply

    sim = Simulator(seed=2)
    network = Network(
        sim, ExplicitTopology([[0.0, 10.0], [10.0, 0.0]]), default_timeout_ms=100.0
    )
    caller = Responder(network)
    dying = DyingResponder(network)
    outcomes = []
    caller.retrying_rpc(
        dying.address,
        "ping",
        {},
        on_reply=lambda p: outcomes.append("reply"),
        on_give_up=lambda: outcomes.append("give_up"),
        retries=1,
    )
    sim.run()
    assert outcomes == ["reply"]
    assert dying.received == 1
    assert not dying.alive


def test_zero_retries_matches_single_shot_semantics():
    """retries=0 restores the seed's behaviour: one lost message condemns
    the call."""
    sim, network, a, b = make_pair()
    lossy(network, 0.5, [0.1])
    outcomes = []
    a.retrying_rpc(
        b.address,
        "ping",
        {},
        on_reply=lambda p: outcomes.append("reply"),
        on_give_up=lambda: outcomes.append("give_up"),
        retries=0,
    )
    sim.run()
    assert outcomes == ["give_up"]
    sent = network.messages_sent
    with pytest.raises(TransportError):
        a.retrying_rpc(b.address, "ping", {}, retries=-1)
    assert network.messages_sent == sent  # refused before anything is sent


def test_backoff_delays_and_attempt_numbers_are_exact():
    """delay_n = min(8000, 500 * 2**n) * (0.5 + 0.5 * u_n), one draw per
    retry, and ``net.rpc_retry`` numbers the attempt it announces."""
    sim, network, a, b = make_pair()  # 10 ms links, 100 ms timeout
    b.fail()
    sim.trace.record("net.rpc_retry", "net.drop")
    gave_up = []
    a.retrying_rpc(
        b.address,
        "ping",
        {},
        on_give_up=lambda: gave_up.append(sim.now),
        retries=6,
        rng=ScriptedRng([0.0, 0.5, 0.0, 0.0, 0.0, 0.0]),
    )
    sim.run()
    # Attempt 0 at t=0 times out at 100; wait min(8000, 500) * 0.5 = 250.
    # Attempt 1 at 350 times out at 450; wait min(8000, 1000) * 0.75 = 750.
    # Attempt 2 at 1200 times out at 1300; wait 2000 * 0.5 = 1000.
    # Attempt 3 at 2300 times out at 2400; wait 4000 * 0.5 = 2000.
    # Attempt 4 at 4400 times out at 4500; wait min(8000, 8000) * 0.5 = 4000.
    # Attempt 5 at 8500 times out at 8600; wait min(8000, 16000) * 0.5 = 4000.
    # Attempt 6 at 12600 times out at 12700: the budget is spent.
    retries = sim.trace.events("net.rpc_retry")
    assert [(e.time, e.payload["attempt"]) for e in retries] == [
        (100.0, 1),
        (450.0, 2),
        (1300.0, 3),
        (2400.0, 4),
        (4500.0, 5),
        (8600.0, 6),
    ]
    assert all(
        e.payload["rpc_kind"] == "ping" and e.payload["dst"] == b.address
        for e in retries
    )
    # Each request dies at the dead destination one link latency after it
    # was sent.
    assert [e.time for e in sim.trace.events("net.drop")] == [
        10.0,
        360.0,
        1210.0,
        2310.0,
        4410.0,
        8510.0,
        12610.0,
    ]
    assert gave_up == [12700.0]


def test_source_dying_mid_backoff_ends_the_chain():
    """A dead peer processes nothing, its own backoff timer included: no
    further attempt is sent and nobody is told the call gave up."""
    sim, network, a, b = make_pair()
    b.fail()
    outcomes = []
    a.retrying_rpc(
        b.address,
        "ping",
        {},
        on_reply=lambda p: outcomes.append("reply"),
        on_give_up=lambda: outcomes.append("give_up"),
        retries=2,
        rng=ScriptedRng([0.0]),
    )
    sim.schedule(105.0, a.fail)  # timeout at 100, next attempt due at 350
    sim.run()
    assert outcomes == []
    assert network.messages_sent == 1
    assert sim.trace.count("net.rpc_retry") == 1


def test_every_attempt_carries_the_payload_as_it_was_at_the_call():
    """One copy per call (the caller may reuse its dict) and one per
    attempt (a handler may scribble on what it receives)."""

    class Scribbler(Responder):
        def __init__(self, network):
            super().__init__(network)
            self.seen = []

        def handle_ping(self, message):
            self.seen.append(dict(message.payload))
            message.payload["scribbled"] = True
            return super().handle_ping(message)

    sim = Simulator(seed=1)
    network = Network(
        sim, ExplicitTopology([[0.0, 10.0], [10.0, 0.0]]), default_timeout_ms=100.0
    )
    a, b = Responder(network), Scribbler(network)
    # Draw 1: request 1 delivered.  Draw 2: reply 1 dropped.  Then clean.
    lossy(network, 0.5, [0.9, 0.1])
    payload = {"value": 1}
    a.retrying_rpc(b.address, "ping", payload, retries=1)
    payload["value"] = 2  # the caller moves on
    sim.run()
    assert b.seen == [{"value": 1}, {"value": 1}]
    assert payload == {"value": 2}


class Acker(Responder):
    def handle_ping(self, message):
        self.received += 1
        return ACK


def test_under_configured_loss_an_ack_travels_and_can_be_lost():
    """Loss is drawn per delivery, so on a lossy fabric the ack is a
    delivery of its own: the event count shows it, a draw is spent on it,
    and when that draw loses it the caller times out."""
    sim, network, a, b = make_pair(answering=Acker)
    # Call 1: request in, ack in.  Call 2: request in, ack lost.
    lossy(network, 0.5, [0.9, 0.9, 0.9, 0.1])
    outcomes = []
    for __ in range(2):
        a.rpc(
            b.address,
            "ping",
            {},
            on_reply=lambda p: outcomes.append("reply"),
            on_timeout=lambda: outcomes.append(("timeout", sim.now)),
        )
    sim.run(until=99.0)
    assert b.received == 2
    assert sim.events_executed == 4  # two requests, two acks on the wire
    assert network.drop_counts["loss"] == 1
    sim.run()
    assert outcomes == [("timeout", 100.0)]  # on_reply heard neither ack


def test_retry_survives_a_lost_ack_without_a_word_to_on_reply():
    sim, network, a, b = make_pair(answering=Acker)
    lossy(network, 0.5, [0.9, 0.1])  # ack 1 lost
    outcomes = []
    a.retrying_rpc(
        b.address,
        "ping",
        {},
        on_reply=lambda p: outcomes.append("reply"),
        on_give_up=lambda: outcomes.append("give_up"),
        retries=2,
    )
    sim.run()
    assert b.received == 2
    assert sim.trace.count("net.rpc_retry") == 1
    assert outcomes == []  # settled by the second ack: nothing to report


@pytest.mark.parametrize("answered", [True, False])
def test_a_finished_call_is_freed_by_refcount(refcount_only, answered):
    """Nothing of a retrying call refers to itself: the retry record, the
    caller's callbacks and whatever they capture are gone the moment the
    reply is delivered or the budget is spent -- with the collector off.
    The answered attempt's deadline was never armed, so nothing of the
    call is left pending either."""
    sim, network, a, b = make_pair()
    if not answered:
        b.fail()
    outcomes = []
    refs = []
    rpc = a.rpc

    def spy(dst, kind, payload, on_reply, on_timeout, timeout_ms):
        # The timeout callback is the record's bound method.
        refs.append(weakref.ref(getattr(on_timeout, "__self__", on_timeout)))
        rpc(dst, kind, payload, on_reply, on_timeout, timeout_ms)

    a.rpc = spy

    def on_reply(payload):
        outcomes.append("reply")

    def on_give_up():
        outcomes.append("give_up")

    refs += [weakref.ref(on_reply), weakref.ref(on_give_up)]
    a.retrying_rpc(
        b.address, "ping", {}, on_reply=on_reply, on_give_up=on_give_up, retries=1
    )
    del on_reply, on_give_up
    assert all(ref() is not None for ref in refs)
    if answered:
        sim.run(until=25.0)  # the reply lands at 20, the deadline is 100
        assert sim.pending_events == 0
    else:
        sim.run()
    assert outcomes == (["reply"] if answered else ["give_up"])
    assert [ref() for ref in refs] == [None] * len(refs)


def test_flower_retries_beat_single_shot_under_loss():
    """With retries enabled Flower's hit ratio under uniform loss is no
    worse than the single-shot (rpc_retries=0) behaviour
    at the same loss rate."""
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_experiment

    base = ExperimentConfig.scaled(
        population=80,
        duration_hours=2.0,
        num_websites=4,
        num_active_websites=2,
        num_localities=2,
        objects_per_website=25,
        fault_schedule=(UniformLossSpec(0.10),),
    )
    with_retries = run_experiment("flower", base, seed=19)
    single_shot = run_experiment("flower", base.replace(rpc_retries=0), seed=19)
    assert with_retries.hit_ratio >= single_shot.hit_ratio
