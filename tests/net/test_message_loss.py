"""Tests for the message-loss fault model."""

import pytest

from repro.errors import TransportError
from repro.net.topology import ExplicitTopology
from repro.net.transport import Network, NetworkNode
from repro.sim.engine import Simulator


class Responder(NetworkNode):
    def __init__(self, network):
        super().__init__(network)
        self.received = 0

    def handle_ping(self, message):
        self.received += 1
        return {"ok": True}


def make_pair(loss=0.0, seed=1):
    sim = Simulator(seed=seed)
    network = Network(
        sim, ExplicitTopology([[0.0, 10.0], [10.0, 0.0]]), default_timeout_ms=100.0
    )
    if loss:
        network.configure_loss(loss, sim.rng("loss"))
    return sim, network, Responder(network), Responder(network)


def test_loss_rate_validated():
    sim, network, __, __ = make_pair()
    with pytest.raises(TransportError):
        network.configure_loss(1.5, sim.rng("loss"))
    with pytest.raises(TransportError):
        network.configure_loss(-0.1, sim.rng("loss"))


def test_total_loss_drops_everything():
    sim, network, a, b = make_pair(loss=0.999999999)
    outcomes = []
    for __ in range(20):
        a.rpc(b.address, "ping", {}, on_reply=lambda p: outcomes.append("reply"),
              on_timeout=lambda: outcomes.append("timeout"))
    sim.run()
    assert outcomes == ["timeout"] * 20
    assert b.received == 0
    assert network.messages_dropped == 20


def test_zero_loss_drops_nothing():
    sim, network, a, b = make_pair(loss=0.0)
    for __ in range(20):
        a.send(b.address, "ping")
    sim.run()
    assert b.received == 20
    assert network.messages_dropped == 0


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
        message_loss_rate=0.05,
    )
    result = run_experiment("flower", config, seed=19)
    assert result.queries > 50
    assert result.hit_ratio > 0.0  # degraded, but alive


def test_loss_rate_config_validated():
    from repro.errors import ConfigError
    from repro.experiments.config import ExperimentConfig

    with pytest.raises(ConfigError):
        ExperimentConfig.scaled(message_loss_rate=1.0)


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
    network.configure_loss(0.5, ScriptedRng([0.1]))  # drop only attempt 1
    outcomes = []
    a.retrying_rpc(
        b.address,
        "ping",
        {},
        on_reply=lambda p: outcomes.append("reply"),
        on_give_up=lambda: outcomes.append("give_up"),
        retries=2,
        backoff_ms=20.0,
    )
    sim.run()
    assert outcomes == ["reply"]
    assert b.received == 1  # attempt 1 never reached the handler
    assert network.dropped_loss == 1
    assert sim.trace.count("net.rpc_retry") == 1


def test_retry_survives_lost_reply():
    """Reply (not request) lost mid-flight: the handler runs twice but the
    caller still ends with exactly one reply."""
    sim, network, a, b = make_pair()
    # Draw 1: request 1 delivered.  Draw 2: reply 1 dropped.  Then clean.
    network.configure_loss(0.5, ScriptedRng([0.9, 0.1]))
    outcomes = []
    a.retrying_rpc(
        b.address,
        "ping",
        {},
        on_reply=lambda p: outcomes.append("reply"),
        on_give_up=lambda: outcomes.append("give_up"),
        retries=2,
        backoff_ms=20.0,
    )
    sim.run()
    assert outcomes == ["reply"]
    assert b.received == 2  # both requests reached the handler
    assert network.dropped_loss == 1


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
        backoff_ms=20.0,
    )
    sim.run()
    assert outcomes == ["give_up"]
    assert b.received == 0
    assert network.dropped_dead_dst == 3  # 1 try + 2 retries
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
    network.configure_loss(0.5, ScriptedRng([0.1]))
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
    with pytest.raises(TransportError):
        a.retrying_rpc(b.address, "ping", {}, retries=-1)


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
        message_loss_rate=0.10,
    )
    with_retries = run_experiment("flower", base, seed=19)
    single_shot = run_experiment("flower", base.replace(rpc_retries=0), seed=19)
    assert with_retries.hit_ratio >= single_shot.hit_ratio
