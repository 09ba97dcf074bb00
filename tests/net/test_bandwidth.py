"""Unit tests for the fair-share bandwidth model.

Rates are in kbps == bits per millisecond, so a 1 MB payload at
8000 kbps takes exactly 1000 ms — every timing assertion below is exact
arithmetic, no tolerance fudging needed beyond float epsilon.
"""

import pytest

from repro.errors import ConfigError
from repro.experiments.config import ExperimentConfig
from repro.net.bandwidth import BandwidthModel
from repro.sim.engine import Simulator

MB = 1_000_000


def make_model(bandwidth_kbps=8000.0, seed=0, **overrides):
    sim = Simulator(seed=1)
    config = ExperimentConfig(bandwidth_kbps=bandwidth_kbps, **overrides)
    return sim, BandwidthModel(sim, config, seed)


class Recorder:
    """Collects (event, flow, time) callback firings."""

    def __init__(self, sim):
        self.sim = sim
        self.events = []

    def on_done(self, flow):
        self.events.append(("done", flow, self.sim.now))

    def on_abort(self, flow):
        self.events.append(("abort", flow, self.sim.now))


# ---------------------------------------------------------------- params


@pytest.mark.parametrize(
    "bad",
    [
        {"bandwidth_kbps": -1.0},
        {"bandwidth_kbps": -10.0},
        {"bandwidth_slow_factor": 0.0},
        {"bandwidth_slow_fraction": -0.1},
        {"bandwidth_slow_fraction": 1.5},
        {"bandwidth_slow_factor": 0.5},
    ],
)
def test_params_validation(bad):
    """The model reads the run's config, which rejects bad values (0 kbps
    is valid there: it switches the model off)."""
    with pytest.raises(ConfigError):
        ExperimentConfig(**bad)


def test_zero_size_flow_rejected():
    sim, model = make_model()
    with pytest.raises(ConfigError):
        model.start(1, 2, 0, on_done=lambda flow: None)


# ---------------------------------------------------------------- timing


def test_single_flow_timing():
    sim, model = make_model(bandwidth_kbps=8000.0)
    rec = Recorder(sim)
    model.start(1, 2, MB, on_done=rec.on_done)
    sim.run()
    # 1 MB = 8e6 bits at 8000 bits/ms -> 1000 ms.
    assert [(kind, t) for kind, _, t in rec.events] == [("done", 1000.0)]
    assert model.flows_completed == 1
    assert model.bytes_completed == MB
    assert model.active_flows(1) == 0


def test_fair_share_two_concurrent_flows():
    sim, model = make_model(bandwidth_kbps=8000.0)
    rec = Recorder(sim)
    model.start(1, 2, MB, on_done=rec.on_done)
    model.start(1, 3, MB, on_done=rec.on_done)
    assert model.active_flows(1) == 2
    sim.run()
    # Each flow gets 4000 kbps, so both finish at 2000 ms.
    assert sorted(t for _, _, t in rec.events) == [2000.0, 2000.0]
    assert model.peak_concurrent == 2


def test_settle_then_reschedule_mid_flow_join():
    sim, model = make_model(bandwidth_kbps=8000.0)
    rec = Recorder(sim)
    model.start(1, 2, MB, on_done=rec.on_done)
    sim.schedule(500.0, model.start, 1, 3, MB, rec.on_done)
    sim.run()
    # A runs alone for 500 ms (4e6 bits done), then shares: remaining
    # 4e6 bits at 4000 kbps -> done at 1500 ms.  B then runs alone from
    # 1500 ms with 4e6 bits left of 8e6 -> done at 2000 ms.
    times = {flow.dst: t for _, flow, t in rec.events}
    assert times == {2: 1500.0, 3: 2000.0}


def test_flows_at_distinct_senders_do_not_share():
    sim, model = make_model(bandwidth_kbps=8000.0)
    rec = Recorder(sim)
    model.start(1, 9, MB, on_done=rec.on_done)
    model.start(2, 9, MB, on_done=rec.on_done)
    sim.run()
    # Capacity is per-sender; neither flow slows the other down.
    assert [t for _, _, t in rec.events] == [1000.0, 1000.0]


# ---------------------------------------------------------------- abort


def test_abort_uploads_of_fires_on_abort_and_counts():
    sim, model = make_model(bandwidth_kbps=8000.0)
    rec = Recorder(sim)
    model.start(1, 2, MB, on_done=rec.on_done, on_abort=rec.on_abort)
    model.start(1, 3, MB, on_done=rec.on_done, on_abort=rec.on_abort)
    model.start(4, 5, MB, on_done=rec.on_done, on_abort=rec.on_abort)

    def strike():
        assert model.abort_uploads_of(1) == 2

    sim.schedule(300.0, strike)
    sim.run()
    kinds = sorted((kind, flow.src) for kind, flow, _ in rec.events)
    # Both of peer 1's uploads abort at the strike; peer 4's completes.
    assert kinds == [("abort", 1), ("abort", 1), ("done", 4)]
    abort_times = [t for kind, _, t in rec.events if kind == "abort"]
    assert abort_times == [300.0, 300.0]
    assert model.flows_aborted == 2
    assert model.bytes_aborted == 2 * MB
    assert model.flows_completed == 1
    assert model.active_flows(1) == 0


def test_abort_uploads_of_idle_sender_is_zero():
    sim, model = make_model()
    assert model.abort_uploads_of(42) == 0


def test_cancel_is_silent_and_idempotent():
    sim, model = make_model(bandwidth_kbps=8000.0)
    rec = Recorder(sim)
    flow = model.start(1, 2, MB, on_done=rec.on_done, on_abort=rec.on_abort)
    peer = model.start(1, 3, MB, on_done=rec.on_done, on_abort=rec.on_abort)

    def drop():
        model.cancel(flow)
        model.cancel(flow)  # second cancel is a no-op

    sim.schedule(500.0, drop)
    sim.run()
    # The cancelled flow fires neither callback; the survivor speeds
    # back up to full capacity: 500 ms shared (2e6 bits) then 6e6 bits
    # at 8000 kbps -> done at 1250 ms.
    assert [(kind, f.dst, t) for kind, f, t in rec.events] == [
        ("done", peer.dst, 1250.0)
    ]
    assert model.flows_aborted == 0


# ---------------------------------------------------------------- slow uplinks


def test_slow_fraction_one_degrades_everyone():
    sim, model = make_model(
        bandwidth_kbps=8000.0, bandwidth_slow_fraction=1.0, bandwidth_slow_factor=8.0
    )
    rec = Recorder(sim)
    model.start(1, 2, MB, on_done=rec.on_done)
    sim.run()
    # 8e6 bits at 1000 bits/ms -> 8000 ms.
    assert [t for _, _, t in rec.events] == [8000.0]
    assert model.capacity_kbps(1) == 1000.0
    assert model.slow_peers == 1


def is_slow(model, address):
    return model.capacity_kbps(address) < model.config.bandwidth_kbps


def test_slow_membership_is_deterministic_and_stable():
    _, a = make_model(bandwidth_slow_fraction=0.3, seed=7)
    _, b = make_model(bandwidth_slow_fraction=0.3, seed=7)
    verdicts_a = [is_slow(a, address) for address in range(200)]
    verdicts_b = [is_slow(b, address) for address in range(200)]
    assert verdicts_a == verdicts_b
    # Membership is per-address, not a shared stream: querying in a
    # different order must not change anyone's verdict.
    _, c = make_model(bandwidth_slow_fraction=0.3, seed=7)
    verdicts_c = [is_slow(c, address) for address in reversed(range(200))]
    assert verdicts_c == list(reversed(verdicts_a))
    # And the fraction is roughly honoured.
    assert 0.15 < sum(verdicts_a) / 200 < 0.45


def test_stats_shape():
    sim, model = make_model(bandwidth_kbps=8000.0)
    model.start(1, 2, MB, on_done=lambda flow: None)
    sim.run()
    assert model.stats() == {
        "flows_started": 1,
        "flows_completed": 1,
        "flows_aborted": 0,
        "bytes_completed": MB,
        "bytes_aborted": 0,
        "peak_concurrent": 1,
        "slow_peers": 0,
    }
