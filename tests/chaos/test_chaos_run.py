"""End-to-end chaos runs: clean audits, deterministic replay, and the
auditor actually tripping on an intentionally broken build."""

import glob
import json
import os

import pytest

from repro.cdn.base import BasePeer
from repro.chaos import generate_plan, load_bundle, replay_bundle, run_chaos
from repro.chaos import auditor as auditor_module
from repro.chaos.auditor import SEARCH_STRIKES, InvariantAuditor
from repro.chaos.plan import ChaosPlan
from repro.chaos.runner import config_from_dict, config_to_dict, merged_config
from repro.errors import ConfigError, TransportError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import PROTOCOLS, build_world
from repro.net.faults import (
    BurstyLossSpec,
    LatencySpikeSpec,
    MassFailureSpec,
    PartitionSpec,
    SeederDeathSpec,
    UniformLossSpec,
)
from repro.sim.clock import hours, minutes
from repro.workload.churn import ChurnSurgeSpec
from repro.workload.openloop import RegionalSurge


def small_config(duration_hours=1.5):
    return ExperimentConfig.scaled(
        population=100,
        duration_hours=duration_hours,
        num_websites=6,
        num_active_websites=2,
        num_localities=2,
        objects_per_website=30,
    )


def small_plan(chaos_seed, duration_hours=1.5, intensity=1.0):
    return generate_plan(
        chaos_seed,
        horizon_ms=hours(duration_hours),
        num_localities=2,
        num_websites=6,
        intensity=intensity,
        population=100,
    )


def test_config_bursty_window_is_not_lost_to_the_plans():
    """The plan's faults are appended to the config's schedule; when both
    carry a bursty-loss window the run is refused, where it used to run
    with the plan's window and silently without the config's."""
    plan = next(
        plan
        for plan in map(small_plan, range(1, 30))
        if any(isinstance(fault, BurstyLossSpec) for fault in plan.faults)
    )
    config = small_config().replace(
        fault_schedule=(BurstyLossSpec(p_good_to_bad=0.02, p_bad_to_good=0.5),)
    )
    with pytest.raises(TransportError, match="only one bursty-loss window"):
        run_chaos("flower", config, plan, seed=1, results_dir=None)


# ---------------------------------------------------------------------------
# Config serialization (reproducer bundles carry the full config)
# ---------------------------------------------------------------------------

def test_config_round_trips_with_fault_schedule():
    config = small_config().replace(
        fault_schedule=(
            PartitionSpec(locality=1, start_ms=100.0, heal_ms=200.0),
            MassFailureSpec(at_ms=300.0, fraction=0.5, directories_only=True),
        )
    )
    data = json.loads(json.dumps(config_to_dict(config)))
    assert config_from_dict(data) == config


#: One spec of each kind ``fault_schedule`` accepts.
ONE_OF_EACH_KIND = (
    ChurnSurgeSpec(start_ms=minutes(5), duration_ms=minutes(10), arrivals=6, hot_website=1),
    PartitionSpec(locality=1, start_ms=minutes(10), heal_ms=minutes(20)),
    RegionalSurge(minutes(12), minutes(2), 3.0, minutes(8), locality=0, hot_website=1),
    LatencySpikeSpec(start_ms=minutes(15), end_ms=minutes(30), multiplier=2.0),
    SeederDeathSpec(at_ms=minutes(25), count=2),
    BurstyLossSpec(
        p_good_to_bad=0.05, p_bad_to_good=0.3, start_ms=minutes(30), end_ms=minutes(40)
    ),
    MassFailureSpec(at_ms=minutes(45), fraction=0.2),
    UniformLossSpec(0.05),
)


def test_schedule_of_every_kind_round_trips_and_builds_everywhere():
    """All eight kinds ride in one ``fault_schedule``: the config stays
    hashable, survives the bundle's JSON form equal, and every protocol's
    world installs it (open-loop surges and seeder deaths are inert where
    their plane is off)."""
    config = small_config().replace(fault_schedule=ONE_OF_EACH_KIND)
    data = json.loads(json.dumps(config_to_dict(config)))
    restored = config_from_dict(data)
    assert restored == config and hash(restored) == hash(config)
    for protocol in sorted(PROTOCOLS):
        world = build_world(protocol, restored, seed=1)
        assert world.faults is not None and world.openloop is None
    overloaded = build_world("flower", config.replace(openloop_rate_qps=2.0), seed=1)
    assert overloaded.openloop.surges == [ONE_OF_EACH_KIND[2]]


def test_auditor_owes_convergence_outside_fault_windows_only():
    """Partitions, latency spikes and *bounded* bursty loss open a window
    in which convergence is not owed; nothing else in a schedule does --
    in particular not the surges, which also carry a ``start_ms``, nor
    uniform loss and unbounded bursty loss, which last the whole run."""

    def disturbed_minutes(schedule, settle=0.0):
        world = build_world("flower", small_config().replace(fault_schedule=schedule), 1)
        auditor = InvariantAuditor(world, results_dir=None)
        return [m for m in range(0, 90, 5) if auditor._disturbed(minutes(m), settle)]

    # Partition 10-20, spike 15-30, bursty loss 30-40 minutes.
    assert disturbed_minutes(ONE_OF_EACH_KIND) == [10, 15, 20, 25, 30, 35]
    assert disturbed_minutes(ONE_OF_EACH_KIND, minutes(5)) == list(range(10, 45, 5))
    weather = (
        BurstyLossSpec(p_good_to_bad=0.05, p_bad_to_good=0.3),
        UniformLossSpec(0.05),
    )
    assert disturbed_minutes(weather) == []


def test_bundle_stores_each_spec_of_its_plan_once(tmp_path):
    """A bundle is the arguments of its ``run_chaos`` call: the base
    config's own schedule under ``config``, the plan's under ``plan``."""
    own = (MassFailureSpec(at_ms=minutes(50), fraction=0.1),)
    base = small_config().replace(fault_schedule=own)
    plan = small_plan(6)  # a latency spike, a churn surge, a mass failure
    assert len(plan.faults) == 3
    world = build_world("flower", merged_config(base, plan), seed=1)
    auditor = InvariantAuditor(world, plan=plan, results_dir=str(tmp_path))
    auditor._violation("synthetic", subject="test", details={})
    bundle = load_bundle(auditor.bundle_paths[0])
    assert config_from_dict(bundle["config"]).fault_schedule == own
    assert ChaosPlan.from_dict(bundle["plan"]) == plan
    assert bundle["schema"] == bundle["plan"]["schema"] == 2


def test_config_from_dict_rejects_unknown_fields():
    data = config_to_dict(small_config())
    data["warp_factor"] = 9
    with pytest.raises(ConfigError):
        config_from_dict(data)


# ---------------------------------------------------------------------------
# Clean runs
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_clean_run_has_no_violations_and_is_deterministic():
    """Same (config, plan, seed) => same trace fingerprint, no violations.

    This is the ChaosPlan analogue of the fault-trajectory determinism
    test: surges, phase markers and the auditor itself must not perturb
    reproducibility.
    """
    config = small_config()
    plan = small_plan(2)

    def once():
        return run_chaos(
            "flower", config, plan, seed=3,
            results_dir=None, collect_fingerprint=True,
        )

    first, second = once(), once()
    assert first.ok, [v.to_dict() for v in first.violations]
    assert first.stats["audits"] > 0
    assert first.stats["queries_opened"] > 0
    # every opened query was closed (or finalized at the horizon)
    assert first.fingerprint is not None
    assert first.fingerprint == second.fingerprint
    assert first.result.hit_ratio == second.result.hit_ratio


@pytest.mark.slow
def test_petalup_clean_run(tmp_path):
    report = run_chaos(
        "petalup",
        small_config(),
        small_plan(3),
        seed=1,
        results_dir=str(tmp_path),
    )
    assert report.ok, [v.to_dict() for v in report.violations]
    assert not list(tmp_path.iterdir())  # no bundles on a clean run


# ---------------------------------------------------------------------------
# Broken build: the auditor must trip, dump a bundle, and replay it
# ---------------------------------------------------------------------------

@pytest.fixture
def leaky_completions(monkeypatch):
    """Swallow every 7th query completion: queries leak, the ledger
    invariant ("every issued query terminates exactly once") is violated."""
    counter = {"n": 0}
    orig = BasePeer._finish_query

    def leaky(self, *args, **kwargs):
        counter["n"] += 1
        if counter["n"] % 7 == 0:
            return None
        return orig(self, *args, **kwargs)

    monkeypatch.setattr(BasePeer, "_finish_query", leaky)
    return counter


@pytest.mark.slow
def test_broken_build_trips_auditor_and_bundle_replays(
    tmp_path, leaky_completions, monkeypatch
):
    monkeypatch.setattr(auditor_module, "MAX_VIOLATIONS", 2)
    report = run_chaos(
        "flower",
        small_config(),
        small_plan(2),
        seed=2,
        results_dir=str(tmp_path),
    )
    assert not report.ok
    assert {v.kind for v in report.violations} == {"query_leaked"}
    bundles = sorted(glob.glob(os.path.join(str(tmp_path), "*.json")))
    assert bundles and bundles == sorted(report.bundle_paths)

    bundle = load_bundle(report.bundle_paths[0])
    assert bundle["protocol"] == "flower"
    assert bundle["seed"] == 2
    assert bundle["violation"]["kind"] == "query_leaked"
    assert bundle["plan"]["name"] == report.plan.name
    assert bundle["trace_window"]  # some context was captured
    assert bundle["state"]["open_queries"] > 0

    # With the build still broken, the replay re-triggers the very same
    # violation from nothing but the bundle.
    leaky_completions["n"] = 0
    replay = replay_bundle(report.bundle_paths[0], results_dir=None)
    assert not replay.ok
    assert replay.violations[0].kind == report.violations[0].kind
    assert replay.violations[0].subject == report.violations[0].subject
    assert replay.violations[0].time == report.violations[0].time


@pytest.mark.slow
def test_all_planes_at_once_stay_clean(tmp_path):
    """Replication, search + probes, open loop + admission queues +
    shedding, hints, rebalance, swarming + bandwidth, together, under a
    plan drawn from the full menu (the first plan of CI's all-planes
    ``chaos-smoke`` lane): no violation, every query and every transfer
    terminally accounted."""
    from repro.cli import main

    report_path = tmp_path / "report.json"
    argv = (
        f"chaos flower --replication 2 --search --rebalance --seeder-death "
        f"--population 100 --hours 3 --seed 1 --plans 1 --chaos-seed 1 "
        f"--intensity 1.5 --results-dir {tmp_path / 'bundles'} --json {report_path}"
    )
    assert main(argv.split()) == 0
    (report,) = json.loads(report_path.read_text()).values()
    stats = report["stats"]
    assert report["violations"] == []
    assert stats["searches"] > 0 and stats["queries_opened"] > 50_000
    # Whatever is still open at the horizon is younger than the ledger
    # grace (older would be a ``query_leaked`` violation above).
    assert 0 <= stats["queries_opened"] - stats["queries_closed"] <= 5
    assert stats["transfers_opened"] == stats["transfers_closed"] > 0


def test_per_link_timeouts_keep_the_deadline_fifos_few():
    """Each member query times its directory attempts by its own link,
    so timeouts take as many values as there are links.  The transport
    keys a timeout FIFO by value, but a deadline enters one only when its
    timeout can already win at send: on the e2e ``chaos`` world (P = 240,
    k = 2, an intensity-1.5 plan, here 3 h of it) the FIFOs stay one per
    protocol-wide timeout, not one per link."""
    config = ExperimentConfig.scaled(
        population=240, duration_hours=3.0, directory_replication_k=2
    )
    plan = generate_plan(
        1,
        horizon_ms=config.duration_ms,
        num_localities=config.num_localities,
        num_websites=config.num_websites,
        intensity=1.5,
        population=config.population,
    )
    world = build_world("flower", merged_config(config, plan), seed=1)
    world.run()
    assert len(world.system.metrics) > 1000
    assert len(world.network._timeout_fifos) <= 3


@pytest.mark.slow
def test_a_lookup_failure_does_not_make_a_second_directory():
    """A dead hop fails a D-ring lookup as surely as a partition does.
    On the e2e ``chaos`` configuration at P = 400 (seed 1), two peers
    once failed their joins at slot (6, 1, 0) with reason ``lookup``
    while peer 228 had held the slot's ring position since 29 541 s, and
    both served it provisionally: the audits at 29 400 s and 30 000 s each
    saw more than one holder (``duplicate_directory``).  A join retries
    the lookup once from a fresh bootstrap before it serves without the
    ring.  ``tests/cdn/test_replication.py``'s ``TestJoinLookupRetry``
    guards that rule; since the backup-holder change redrew the stream,
    this run no longer fails a lookup at that slot without the retry, and
    it stays as a clean-run check of the P = 400 chaos configuration."""
    config = ExperimentConfig.scaled(
        population=400, duration_hours=24.0, directory_replication_k=2
    )
    plan = generate_plan(
        1,
        horizon_ms=config.duration_ms,
        num_localities=config.num_localities,
        num_websites=config.num_websites,
        intensity=1.5,
        population=config.population,
    )
    plan = ChaosPlan(
        name=plan.name,
        chaos_seed=plan.chaos_seed,
        horizon_ms=30_060_000.0,
        faults=plan.faults,
        phases=plan.phases,
    )
    report = run_chaos(
        "flower", config, plan, seed=1, results_dir=None, halt_on_violation=True
    )
    assert [v.kind for v in report.violations] == []
    assert report.stats["audits"] >= 50


def test_load_bundle_rejects_garbage(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text(json.dumps({"hello": "world"}))
    with pytest.raises(ConfigError):
        load_bundle(str(path))


# ---------------------------------------------------------------------------
# I7: search availability & staleness (section 5.4)
# ---------------------------------------------------------------------------

def _search_world(replication_k):
    from repro.experiments.runner import build_world

    config = small_config().replace(
        directory_replication_k=replication_k,
        search_keywords=8,
        search_probe_period_s=60.0,
    )
    return build_world("flower", config, seed=5)


def _emit_search(world, source, staleness_ms=0.0, website=0, locality=0):
    world.sim.emit(
        "flower.search_done",
        peer=1,
        website=website,
        locality=locality,
        keyword="kw0",
        matches=0,
        source=source,
        staleness_ms=staleness_ms,
    )


def test_search_staleness_beyond_bound_is_a_violation():
    from repro.chaos.auditor import InvariantAuditor

    world = _search_world(replication_k=2)
    auditor = InvariantAuditor(world, results_dir=None)
    bound = auditor.search_staleness_bound_ms
    _emit_search(world, "replica", staleness_ms=bound)  # at the bound: fine
    assert auditor.violations == []
    _emit_search(world, "replica", staleness_ms=bound + 1.0)
    assert [v.kind for v in auditor.violations] == ["search_stale_beyond_bound"]
    assert auditor.stats["search_replica_served"] == 2
    assert auditor.stats["search_stale_max_ms"] == int(round(bound + 1.0))


def test_search_outage_streak_trips_i7_when_replicated():
    from repro.chaos.auditor import InvariantAuditor

    world = _search_world(replication_k=2)
    auditor = InvariantAuditor(world, results_dir=None)
    strikes = SEARCH_STRIKES
    # An answered search in between resets the streak.
    for _ in range(strikes - 1):
        _emit_search(world, "none")
    _emit_search(world, "directory")
    for _ in range(strikes - 1):
        _emit_search(world, "none")
    assert auditor.violations == []
    _emit_search(world, "none")
    assert [v.kind for v in auditor.violations] == ["search_unavailable"]
    # Unregistered completions never enter the availability ledger.
    before = auditor.stats["searches"]
    _emit_search(world, "unregistered")
    assert auditor.stats["searches"] == before


def test_search_outage_is_expected_baseline_at_k0():
    from repro.chaos.auditor import InvariantAuditor

    world = _search_world(replication_k=0)
    auditor = InvariantAuditor(world, results_dir=None)
    for _ in range(10):
        _emit_search(world, "none")
    assert auditor.violations == []
    assert auditor.stats["searches_unanswered"] == 10
