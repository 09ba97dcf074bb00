"""Tests for the fault-injection subsystem (partitions, bursty and uniform
loss, latency spikes, mass failures, determinism)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdn.server import OriginServer
from repro.errors import TransportError
from repro.net.faults import (
    BurstyLossSpec,
    FaultController,
    LatencySpikeSpec,
    MassFailureSpec,
    PartitionSpec,
    UniformLossSpec,
)
from repro.net.topology import ExplicitTopology
from repro.net.transport import Network, NetworkNode
from repro.sim.engine import Simulator


class Recorder(NetworkNode):
    def __init__(self, network):
        super().__init__(network)
        self.received = []
        self.received_at = {}

    def handle_ping(self, message):
        seq = message.payload.get("seq")
        self.received.append(seq)
        self.received_at[seq] = self.sim.now
        return {"ok": True}


def make_world(num_nodes=2, latency=10.0, seed=1, spare=0):
    """*num_nodes* recorders, and room for *spare* more nodes."""
    sim = Simulator(seed=seed)
    size = num_nodes + spare
    matrix = [[0.0 if i == j else latency for j in range(size)] for i in range(size)]
    network = Network(sim, ExplicitTopology(matrix), default_timeout_ms=100.0)
    nodes = [Recorder(network) for __ in range(num_nodes)]
    return sim, network, nodes


def send_at(sim, time, src, dst, seq):
    sim.schedule_at(time, lambda: src.send(dst.address, "ping", seq=seq))


# ---------------------------------------------------------------------------
# Spec validation
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(TransportError):
        BurstyLossSpec(p_good_to_bad=1.5, p_bad_to_good=0.5)
    with pytest.raises(TransportError):
        BurstyLossSpec(p_good_to_bad=0.1, p_bad_to_good=0.0)
    with pytest.raises(TransportError):
        PartitionSpec(locality=0, start_ms=100.0, heal_ms=100.0)
    with pytest.raises(TransportError):
        LatencySpikeSpec(start_ms=0.0, end_ms=10.0, multiplier=0.5)
    with pytest.raises(TransportError):
        MassFailureSpec(at_ms=0.0, fraction=0.0)


def test_specs_are_hashable():
    """Specs ride inside frozen ExperimentConfig tuples used as dict keys."""
    schedule = (
        BurstyLossSpec(p_good_to_bad=0.05, p_bad_to_good=0.5),
        PartitionSpec(locality=1, start_ms=1.0, heal_ms=2.0),
        LatencySpikeSpec(start_ms=0.0, end_ms=1.0, multiplier=2.0),
        MassFailureSpec(at_ms=5.0),
    )
    assert len({schedule: "ok"}) == 1


def test_apply_rejects_unknown_spec():
    sim, network, __ = make_world()
    controller = FaultController(sim, network)
    with pytest.raises(TransportError):
        controller.apply(["not a spec"])


def test_apply_rejects_a_second_bursty_window():
    """One Gilbert-Elliott chain per link: a schedule with two bursty specs
    (a config's own plus a chaos plan's, say) must not lose one silently,
    and neither may a second one installed mid-run."""
    sim, network, __ = make_world()
    controller = FaultController(sim, network)
    first = BurstyLossSpec(p_good_to_bad=0.1, p_bad_to_good=0.5, end_ms=100.0)
    second = BurstyLossSpec(p_good_to_bad=0.2, p_bad_to_good=0.4, start_ms=200.0)
    with pytest.raises(TransportError) as raised:
        controller.apply([first, MassFailureSpec(at_ms=5.0), second])
    assert repr(first) in str(raised.value)
    assert repr(second) in str(raised.value)
    sim.run(until=50.0)
    with pytest.raises(TransportError, match="only one bursty-loss window"):
        controller.apply([second])


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------

def test_partition_cuts_both_directions_and_heals():
    sim, network, (a, b) = make_world()
    controller = FaultController(sim, network, locality_of={a.address: 0}.get)
    controller.apply([PartitionSpec(locality=0, start_ms=0.0, heal_ms=1000.0)])

    a.send(b.address, "ping", seq="a->b cut")
    b.send(a.address, "ping", seq="b->a cut")
    sim.run(until=500.0)
    assert a.received == [] and b.received == []
    assert network.drop_counts["partition"] == 2
    assert controller.partition_active()

    # After the heal, the same links deliver again.
    send_at(sim, 1500.0, a, b, "a->b ok")
    send_at(sim, 1500.0, b, a, "b->a ok")
    sim.run(until=2000.0)
    assert b.received == ["a->b ok"]
    assert a.received == ["b->a ok"]
    assert network.drop_counts["partition"] == 2
    assert not controller.partition_active()
    assert sim.trace.count("fault.partition_start") == 1
    assert sim.trace.count("fault.partition_heal") == 1


def test_locality_partition_spares_intra_side_traffic():
    sim, network, (a, b, c) = make_world(num_nodes=3)
    side = {a.address: 0, b.address: 1, c.address: 1}
    controller = FaultController(sim, network, locality_of=side.get)
    controller.apply([PartitionSpec(locality=0, start_ms=0.0, heal_ms=10_000.0)])

    b.send(c.address, "ping", seq="same side")
    a.send(b.address, "ping", seq="cross")
    sim.run(until=100.0)
    assert c.received == ["same side"]
    assert b.received == []
    assert network.drop_counts["partition"] == 1
    assert controller.partition_active()


def test_locality_scoped_specs_need_a_locality_of_mapping():
    sim, network, __ = make_world()
    controller = FaultController(sim, network)
    for spec in (
        PartitionSpec(locality=0, start_ms=0.0, heal_ms=1.0),
        LatencySpikeSpec(start_ms=0.0, end_ms=1.0, multiplier=2.0, locality=0),
        MassFailureSpec(at_ms=1.0, locality=0),
    ):
        with pytest.raises(TransportError, match="locality_of"):
            controller.apply([spec])
    # Unscoped, the same kinds need no mapping.
    controller.apply(
        [
            LatencySpikeSpec(start_ms=0.0, end_ms=1.0, multiplier=2.0),
            MassFailureSpec(at_ms=1.0),
        ]
    )


def test_partition_cuts_rpc_replies_in_flight():
    """A partition starting between request delivery and reply arrival cuts
    the reply: the handler ran but the caller times out."""
    sim, network, (a, b) = make_world(latency=10.0)
    controller = FaultController(sim, network, locality_of={a.address: 0}.get)
    # Request arrives at t=10 (before the cut); reply would arrive at t=20.
    controller.apply([PartitionSpec(locality=0, start_ms=15.0, heal_ms=1000.0)])
    outcomes = []
    a.rpc(
        b.address,
        "ping",
        {"seq": 1},
        on_reply=lambda p: outcomes.append("reply"),
        on_timeout=lambda: outcomes.append("timeout"),
    )
    sim.run(until=500.0)
    assert b.received == [1]
    assert outcomes == ["timeout"]
    assert network.drop_counts["partition"] == 1


# ---------------------------------------------------------------------------
# Gilbert-Elliott bursty loss
# ---------------------------------------------------------------------------

def test_gilbert_elliott_stationary_loss_rate():
    spec = BurstyLossSpec(p_good_to_bad=0.05, p_bad_to_good=0.5)
    assert spec.stationary_loss_rate == pytest.approx(0.05 / 0.55, abs=1e-9)

    sim, network, (a, b) = make_world(seed=7)
    controller = FaultController(sim, network)
    controller.apply([spec])
    total = 4000
    for seq in range(total):
        send_at(sim, float(seq), a, b, seq)
    sim.run()
    observed = 1.0 - len(b.received) / total
    assert observed == pytest.approx(spec.stationary_loss_rate, abs=0.03)
    assert network.drop_counts["loss"] == total - len(b.received)
    assert controller.stats["burst_drops"] == network.drop_counts["loss"]


def test_gilbert_elliott_losses_are_bursty():
    """Drops cluster: the mean run of consecutive drops approaches
    1 / p_bad_to_good, well above the ~1.1 of i.i.d. loss at the same rate."""
    spec = BurstyLossSpec(p_good_to_bad=0.05, p_bad_to_good=0.4)
    sim, network, (a, b) = make_world(seed=11)
    FaultController(sim, network).apply([spec])
    # One shared link, strictly ordered sends -> the delivery sequence is
    # the chain's trajectory.
    total = 6000
    for seq in range(total):
        send_at(sim, float(seq), a, b, seq)
    sim.run()
    delivered = set(b.received)
    runs = []
    run = 0
    for seq in range(total):
        if seq in delivered:
            if run:
                runs.append(run)
            run = 0
        else:
            run += 1
    if run:
        runs.append(run)
    assert runs, "expected at least one drop burst"
    mean_burst = sum(runs) / len(runs)
    # 1/p_bad_to_good = 2.5 deliveries; i.i.d. loss at the same stationary
    # rate (~0.11) would give ~1.12.
    assert mean_burst > 1.6
    assert mean_burst == pytest.approx(1.0 / spec.p_bad_to_good, rel=0.35)


def test_bursty_loss_respects_window():
    spec = BurstyLossSpec(
        p_good_to_bad=0.0,
        p_bad_to_good=0.0,
        loss_good=1.0,
        loss_bad=1.0,
        start_ms=100.0,
        end_ms=200.0,
    )
    sim, network, (a, b) = make_world()
    FaultController(sim, network).apply([spec])
    send_at(sim, 10.0, a, b, "before")
    send_at(sim, 140.0, a, b, "inside")
    send_at(sim, 300.0, a, b, "after")
    sim.run()
    assert b.received == ["before", "after"]


# ---------------------------------------------------------------------------
# Latency spikes
# ---------------------------------------------------------------------------

def test_latency_spike_window_delays_delivery():
    sim, network, (a, b) = make_world(latency=10.0)
    spike = LatencySpikeSpec(start_ms=100.0, end_ms=200.0, multiplier=3.0, additive_ms=5.0)
    FaultController(sim, network).apply([spike])
    send_at(sim, 0.0, a, b, "normal")
    send_at(sim, 150.0, a, b, "spiked")
    sim.run()
    assert b.received_at["normal"] == pytest.approx(10.0)
    assert b.received_at["spiked"] == pytest.approx(150.0 + 10.0 * 3.0 + 5.0)
    assert sum(network.drop_counts.values()) == 0


def test_latency_spike_adjusts_link_latency():
    sim, network, (a, b) = make_world(latency=10.0)
    controller = FaultController(sim, network)
    controller.apply(
        [LatencySpikeSpec(start_ms=0.0, end_ms=100.0, multiplier=3.0, additive_ms=5.0)]
    )
    assert network.link_latency(a.address, b.address) == pytest.approx(35.0)
    sim.run(until=150.0)  # run() advances the clock past the window
    assert network.link_latency(a.address, b.address) == pytest.approx(10.0)
    assert controller.latency_adjust(a.address, b.address, 10.0) == pytest.approx(10.0)


# ---------------------------------------------------------------------------
# Mass-failure campaigns
# ---------------------------------------------------------------------------

def test_mass_failure_crashes_requested_fraction():
    sim, network, nodes = make_world(num_nodes=10, seed=3)
    controller = FaultController(sim, network)
    controller.apply([MassFailureSpec(at_ms=100.0, fraction=0.5)])
    sim.run(until=200.0)
    dead = [n for n in nodes if not n.alive]
    assert len(dead) == 5
    assert controller.stats["mass_failures"] == 5
    assert sim.trace.count("fault.mass_failure") == 1


def test_mass_failure_locality_scoped():
    sim, network, nodes = make_world(num_nodes=8, seed=3)
    locality = {n.address: n.address % 2 for n in nodes}
    controller = FaultController(sim, network, locality_of=locality.get)
    controller.apply([MassFailureSpec(at_ms=50.0, fraction=1.0, locality=0)])
    sim.run(until=100.0)
    for node in nodes:
        assert node.alive == (locality[node.address] == 1)


def test_mass_failure_directories_only():
    sim, network, nodes = make_world(num_nodes=6, seed=3)
    for node in nodes[:2]:
        node.is_directory = True
    controller = FaultController(sim, network)
    controller.apply(
        [MassFailureSpec(at_ms=10.0, fraction=1.0, directories_only=True)]
    )
    sim.run(until=50.0)
    assert all(not n.alive for n in nodes[:2])
    assert all(n.alive for n in nodes[2:])


def test_mass_failure_uses_crash_hook_when_available():
    sim, network, nodes = make_world(num_nodes=4, seed=3)
    crashed = []
    nodes[0].crash = lambda: (crashed.append(True), nodes[0].fail())
    controller = FaultController(sim, network)
    controller.apply([MassFailureSpec(at_ms=10.0, fraction=1.0)])
    sim.run(until=50.0)
    assert crashed == [True]
    assert all(not n.alive for n in nodes)


def test_mass_failure_never_crashes_an_origin_server():
    """Servers never fail in this model, and nothing would revive one: a
    population-wide campaign passes them over."""
    sim, network, nodes = make_world(num_nodes=6, seed=3, spare=2)
    servers = [OriginServer(network, website) for website in range(2)]
    controller = FaultController(sim, network)
    controller.apply([MassFailureSpec(at_ms=10.0, fraction=1.0)])
    sim.run(until=50.0)
    assert all(not n.alive for n in nodes)
    assert all(server.alive for server in servers)
    assert controller.stats["mass_failures"] == len(nodes)


def test_past_due_fault_reschedules_loudly():
    """A fault scheduled in the past fires now -- but says so: a trace
    event plus a stats counter, instead of the old silent ``max()``."""
    sim, network, nodes = make_world(num_nodes=4, seed=5)
    warnings = []
    sim.trace.subscribe(
        "fault.past_due_reschedule", lambda e: warnings.append(e.payload)
    )
    controller = FaultController(sim, network, locality_of={nodes[0].address: 0}.get)
    sim.run(until=100.0)
    controller.apply(
        [
            MassFailureSpec(at_ms=40.0, fraction=1.0),  # 60 ms late
            PartitionSpec(locality=0, start_ms=10.0, heal_ms=200.0),
        ]
    )
    sim.run(until=300.0)
    assert controller.stats["past_due_reschedules"] == 2
    whats = sorted(w["what"] for w in warnings)
    assert whats == ["mass_failure", "partition_start"]
    assert all(w["requested_ms"] < w["now_ms"] for w in warnings)
    assert all(not n.alive for n in nodes)  # the failure still fired


def test_on_time_fault_does_not_warn():
    sim, network, _nodes = make_world(num_nodes=2, seed=6)
    controller = FaultController(sim, network)
    controller.apply([MassFailureSpec(at_ms=50.0, fraction=1.0)])
    sim.run(until=100.0)
    assert "past_due_reschedules" not in controller.stats


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def _fault_trajectory(seed):
    sim, network, nodes = make_world(num_nodes=6, seed=seed)
    a, b = nodes[0], nodes[1]
    controller = FaultController(sim, network)
    controller.apply(
        (
            BurstyLossSpec(p_good_to_bad=0.08, p_bad_to_good=0.4),
            MassFailureSpec(at_ms=2500.0, fraction=0.5),
        )
    )
    for seq in range(3000):
        send_at(sim, float(seq), a, b, seq)
    sim.run()
    return (
        tuple(b.received),
        dict(network.drop_counts),
        dict(controller.stats),
        tuple(n.alive for n in nodes),
    )


def test_identical_seeds_identical_fault_trajectories():
    assert _fault_trajectory(42) == _fault_trajectory(42)
    assert _fault_trajectory(42) != _fault_trajectory(43)


def test_controller_defaults_to_dedicated_rng_stream():
    sim, network, __ = make_world()
    controller = FaultController(sim, network)
    assert controller.rng is sim.rng("faults")
    assert controller.rng is not sim.rng("churn")
    controller.apply([UniformLossSpec(0.1)])
    assert controller.loss_rng is sim.rng("loss")


# ---------------------------------------------------------------------------
# Open-window sets and calm_until: oracle and zero-cost-while-calm
# ---------------------------------------------------------------------------

class FullScanReference:
    """Brute-force fault plane: re-tests the whole schedule on every query.

    Kept independent of :mod:`repro.net.faults` on purpose (its own window
    tests, its own Gilbert-Elliott step) -- it is what the edge-triggered
    controller must be indistinguishable from, RNG draw for RNG draw.
    """

    def __init__(self, rng, loss_rng, locality_of):
        self.rng = rng
        self.loss_rng = loss_rng
        self.locality_of = locality_of
        self.partitions = []  # (start, heal, locality)
        self.spikes = []
        self.bursty = None
        self.uniform_rate = None
        self.bad_links = {}

    def partition_active(self, now):
        return any(start <= now < heal for start, heal, __ in self.partitions)

    def disturbed(self, now, settle):
        windows = [(start, heal) for start, heal, __ in self.partitions]
        windows += [(spec.start_ms, spec.end_ms) for spec in self.spikes]
        if self.bursty is not None and self.bursty.end_ms is not None:
            windows.append((self.bursty.start_ms, self.bursty.end_ms))
        return any(start <= now < end + settle for start, end in windows)

    def drop_cause(self, now, src, dst):
        for start, heal, locality in self.partitions:
            if start <= now < heal and (self.locality_of(src) == locality) != (
                self.locality_of(dst) == locality
            ):
                return "partition"
        if self._bursty_drops(now, src, dst):
            return "loss"
        if self.uniform_rate is not None and self.loss_rng.random() < self.uniform_rate:
            return "loss"
        return None

    def _bursty_drops(self, now, src, dst):
        spec = self.bursty
        if spec is None or now < spec.start_ms:
            return False
        if spec.end_ms is not None and now >= spec.end_ms:
            return False
        bad = self.bad_links.get((src, dst), False)
        if bad:
            if self.rng.random() < spec.p_bad_to_good:
                bad = False
        elif self.rng.random() < spec.p_good_to_bad:
            bad = True
        self.bad_links[(src, dst)] = bad
        loss = spec.loss_bad if bad else spec.loss_good
        return loss > 0.0 and self.rng.random() < loss

    def latency_adjust(self, now, src, dst, base):
        for spec in self.spikes:
            if spec.start_ms <= now < spec.end_ms and (
                spec.locality is None
                or spec.locality in (self.locality_of(src), self.locality_of(dst))
            ):
                base = base * spec.multiplier + spec.additive_ms
        return base


#: Times sit on a coarse grid so that queries land exactly on window
#: boundaries and windows share edges, nest and overlap.
_grid = st.integers(min_value=0, max_value=24).map(lambda n: 10.0 * n)
_length = st.integers(min_value=1, max_value=10).map(lambda n: 10.0 * n)
#: ``None`` installs a window before the run, a time installs it mid-run.
_install_at = st.none() | _grid
_locality = st.integers(min_value=0, max_value=2)
_partitions = st.lists(st.tuples(_install_at, _grid, _length, _locality), max_size=6)
_spikes = st.lists(
    st.tuples(
        _install_at,
        _grid,
        _length,
        st.sampled_from([1.0, 1.5, 3.0]),
        st.sampled_from([0.0, 5.0, 12.5]),
        st.none() | _locality,
    ),
    max_size=4,
)
_probability = st.sampled_from([0.0, 0.3, 0.7, 1.0])
_bursty = st.none() | st.tuples(
    _install_at, _grid, st.none() | _length, _probability, _probability, _probability
)
_uniform = st.none() | st.tuples(_install_at, st.sampled_from([0.0, 0.3, 0.7]))
#: Query times off the grid, strictly inside windows and gaps.
_between = st.lists(_grid.map(lambda t: t + 5.0), max_size=6)
_LINKS = [(0, 1), (1, 0), (0, 3), (2, 1), (3, 2)]


@settings(max_examples=150, deadline=None)
@given(_partitions, _spikes, _bursty, _uniform, _between)
def test_open_window_sets_match_a_full_scan(
    partitions, spikes, bursty, uniform, extra_times
):
    sim, network, __ = make_world(num_nodes=4)

    def locality_of(address):
        return address % 3

    controller = FaultController(
        sim, network, rng=random.Random(11), locality_of=locality_of
    )
    reference = FullScanReference(random.Random(11), random.Random(12), locality_of)

    installs = []  # (install time or None, callable installing on both sides)
    times = set(extra_times)
    for at, start, length, locality in partitions:
        spec = PartitionSpec(locality=locality, start_ms=start, heal_ms=start + length)

        def install(spec=spec):
            controller.apply([spec])
            reference.partitions.append((spec.start_ms, spec.heal_ms, spec.locality))

        installs.append((at, install))
        times.update((spec.start_ms, spec.heal_ms))
    for at, start, length, multiplier, additive, locality in spikes:
        spec = LatencySpikeSpec(start, start + length, multiplier, additive, locality)

        def install(spec=spec):
            controller.apply([spec])
            reference.spikes.append(spec)

        installs.append((at, install))
        times.update((spec.start_ms, spec.end_ms))
    if bursty is not None:
        at, start, length, p_gb, loss_good, loss_bad = bursty
        spec = BurstyLossSpec(
            p_good_to_bad=p_gb,
            p_bad_to_good=0.5,
            loss_good=loss_good,
            loss_bad=loss_bad,
            start_ms=start,
            end_ms=None if length is None else start + length,
        )

        def install(spec=spec):
            controller.apply([spec])
            reference.bursty = spec

        installs.append((at, install))
        times.add(spec.start_ms)
        if spec.end_ms is not None:
            times.add(spec.end_ms)
    if uniform is not None:
        at, rate = uniform

        def install(rate=rate):
            controller.apply([UniformLossSpec(rate)])
            controller.loss_rng = random.Random(12)
            reference.uniform_rate = rate

        installs.append((at, install))
    times.update(at for at, __ in installs if at is not None)

    for at, install in installs:
        if at is None:
            install()
    for now in sorted(times):
        sim.run(until=now)
        assert sim.now == now
        for at, install in installs:
            if at == now:
                install()
        for src, dst in _LINKS:
            # The network's gate: before ``calm_until`` it does not call in.
            calm = now < controller.calm_until
            cause = None if calm else controller.drop_cause(src, dst)
            assert cause == reference.drop_cause(now, src, dst)
            assert controller.rng.getstate() == reference.rng.getstate()
            if controller.loss_rng is not None:
                assert controller.loss_rng.getstate() == reference.loss_rng.getstate()
            calm = now < controller.calm_until
            adjusted = 10.0 if calm else controller.latency_adjust(src, dst, 10.0)
            assert adjusted == reference.latency_adjust(now, src, dst, 10.0)
            # Called directly (no gate) the hooks answer the same.
            assert controller.latency_adjust(src, dst, 10.0) == adjusted
        if reference.uniform_rate is not None:
            assert controller.calm_until == float("-inf")
        assert controller.partition_active() == reference.partition_active(now)
        for settle in (0.0, 15.0):
            assert controller.disturbed(now, settle) == reference.disturbed(now, settle)


class CountingController(FaultController):
    """Counts every call the network makes into the fault plane."""

    calls = 0

    def drop_cause(self, src, dst):
        self.calls += 1
        return super().drop_cause(src, dst)

    def latency_adjust(self, src, dst, base):
        self.calls += 1
        return super().latency_adjust(src, dst, base)


def _traffic(sim, a, b, start, legs):
    """*legs* message legs from *start* on, 1 ms apart: sends in both
    directions and RPCs (request and reply legs)."""
    replies = []
    at = start
    for index in range(legs // 4):
        send_at(sim, at, a, b, index)
        sim.schedule_at(
            at, lambda: a.rpc(b.address, "ping", on_reply=replies.append)
        )
        sim.schedule_at(at, lambda: b.send(a.address, "ping"))
        at += 1.0
    return replies


def test_calm_fault_plane_is_never_called():
    """Zero cost while calm, structurally: with every window in the future
    -- and again once every window is in the past -- no leg calls into the
    controller at all; the leg at exactly ``start_ms`` is the first."""
    sim, network, (a, b) = make_world(latency=10.0)
    controller = CountingController(sim, network, locality_of=lambda address: address)
    controller.apply(
        [
            PartitionSpec(locality=0, start_ms=5000.0, heal_ms=5100.0),
            LatencySpikeSpec(start_ms=5000.0, end_ms=5200.0, multiplier=2.0),
            BurstyLossSpec(0.5, 0.5, start_ms=5050.0, end_ms=5300.0),
        ]
    )
    assert controller.calm_until == 5000.0

    replies = _traffic(sim, a, b, 0.0, 1000)
    sim.run(until=4999.0)
    assert len(replies) == 250 and len(b.received) == 500
    assert controller.calls == 0

    # The first leg at exactly start_ms calls in: once, for its latency.
    sim.run(until=5000.0)
    assert sim.now == 5000.0 and controller.calls == 0
    a.send(b.address, "ping", seq="edge")
    assert controller.calls == 1
    assert controller.calm_until < 5000.0
    sim.run(until=5300.0)  # ...and once more at delivery: cut by the partition
    assert controller.calls == 2
    assert network.drop_counts["partition"] == 1

    # Every window is over.  Edges are polled, not scheduled: the first leg
    # afterwards makes the call that notices, and from then on nobody calls.
    a.send(b.address, "ping", seq="notices")
    assert controller.calls == 3
    assert controller.calm_until == float("inf")
    controller.calls = 0
    replies = _traffic(sim, a, b, 5400.0, 1000)
    sim.run()
    assert len(replies) == 250
    assert controller.calls == 0


def test_scheduling_mid_run_ends_the_calm():
    sim, network, (a, b) = make_world(latency=10.0)
    controller = CountingController(sim, network, locality_of={a.address: 0}.get)
    controller.apply([LatencySpikeSpec(start_ms=1000.0, end_ms=2000.0, multiplier=2.0)])
    sim.run(until=100.0)
    assert controller.calm_until == 1000.0
    controller.apply([LatencySpikeSpec(start_ms=50.0, end_ms=300.0, additive_ms=7.0)])
    assert controller.calm_until <= sim.now  # already open
    a.send(b.address, "ping", seq="spiked")
    sim.run(until=200.0)
    assert b.received_at["spiked"] == pytest.approx(117.0)
    controller.apply([PartitionSpec(locality=0, start_ms=400.0, heal_ms=500.0)])
    sim.run(until=350.0)
    a.send(b.address, "ping", seq="calm again")
    assert controller.calm_until == 400.0
