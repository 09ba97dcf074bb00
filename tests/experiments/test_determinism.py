"""Determinism regression: same seed => bit-identical event stream.

The performance work rewrote the event queue, the dispatch loop and many
hot protocol paths.  All of it is only admissible because the simulated
*behaviour* is unchanged: the full ordered stream of trace events, and
every summary statistic derived from it, must be reproducible bit-for-bit
from the seed -- and must not depend on whether anyone is tracing.

The golden SHA-256 fingerprints below are
:class:`~repro.sim.trace.StreamFingerprint` digests: they chain
``repr((round(time, 9), kind, sorted(payload.items())))`` over every event
seen by a :meth:`~repro.sim.trace.TraceRecorder.subscribe_all` firehose.
If a change moves one of these hashes, it reordered, added, dropped or
altered at least one event: that is a behaviour change and must be called
out (and the goldens re-derived) explicitly, never absorbed silently into
a "performance" commit.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_world
from repro.metrics.collector import (
    ALL_OUTCOMES,
    HIT_OUTCOMES,
    MetricsCollector,
    QueryRecord,
)
from repro.net.faults import (
    BurstyLossSpec,
    FaultController,
    LatencySpikeSpec,
    MassFailureSpec,
    PartitionSpec,
)
from repro.sim.clock import hours, minutes
from repro.sim.trace import StreamFingerprint
from repro.workload.churn import ChurnSurgeSpec

from tests.conftest import arm_every_deadline_at_send

#: protocol -> (stream SHA-256, hit ratio) for GOLDEN_CONFIG at seed 1.
#: Re-derived when the query-lifecycle ledger landed: ``cdn.query_done``
#: now carries the object key (the chaos auditor matches completions to
#: issues by it).  The hit ratios are bit-identical to the previous
#: goldens -- the ledger schedules no events and draws no randomness, so
#: only trace payloads moved, never behaviour.
GOLDEN = {
    "flower": (
        "907429cb81b248f8c0122c2620214dc7bf51dd4ad7f790b2e7eeca26f5700a14",
        0.7420758234928527,
    ),
    "squirrel": (
        "2e834d2f6f1be94f55110f8134efce6585e205f4f63fcdbae2b69fe537afd0d3",
        0.6013110846245531,
    ),
}

#: (stream SHA-256, hit ratio) for GOLDEN_CONFIG + FAULT_SCHEDULE on
#: flower at seed 1: the only golden stream with the fault plane on.
#: Recorded on the commit *before* the controller became edge-triggered
#: (open-window sets + ``calm_until``), so it pins the per-message full
#: scan's behaviour: 346 partition drops, 697 burst drops, 16 mass-failure
#: crashes.
GOLDEN_FAULTED = (
    "27ad95454612352c75356bf87d6eb67079a77c8a559f2e152a3fc8d696560b1a",
    0.6450742240215924,
)

#: phase the plan must contain -> (protocol, config overrides,
#: ``generate_plan`` opt-ins, stream SHA-256, hit ratio) of one
#: ``run_chaos`` per plan menu over CHAOS_GOLDEN_BASE at seed 1, chaos
#: seed 1, intensity 1.5.  The classic plan is four ``flash_crowd`` surges
#: around a ``split_brain``; the overload plan two ``sustained_overload``
#: plateaus (3 454 surge arrivals), a ``churn_burst`` and two flash
#: crowds; the seeder plan two ``seeder_death`` strikes (one lands), a
#: ``churn_burst`` and two flash crowds.  Recorded
#: on the commit *before* surges, overload windows and seeder deaths moved
#: from three side lists of the plan (each with its own installer, run
#: after the auditor and the phase markers) into ``fault_schedule``, so
#: they pin that one installer schedules in the same order and draws the
#: same streams as three.
GOLDEN_CHAOS = {
    "flash_crowd": (
        "flower",
        {},
        {},
        "c5b85bbadbb412b11d6cca1efd05589baa0881c5dcd11ef356ba388d567ac1fc",
        0.4005252790544977,
    ),
    "sustained_overload": (
        "petalup",
        dict(
            openloop_rate_qps=1.0,
            directory_queue_limit=16,
            directory_service_ms=40.0,
            overload_shedding=True,
            redirect_hints=True,
            rebalance=True,
        ),
        dict(overload=True),
        "790fdc779a62aa18c6aa1c79e44e9c343ce62a05a26f1572efe7af42bf974718",
        0.9458549423329979,
    ),
    "seeder_death": (
        "flower",
        dict(
            swarming=True,
            swarm_replicate=2,
            object_mean_kb=256.0,
            bandwidth_kbps=4000.0,
            bandwidth_slow_fraction=0.15,
        ),
        dict(seeder_death=True),
        "9ac5d7a0235ce1d1af9f1d26c88c731c9c40669fd1d86e68e1f2739d9d111a7c",
        0.33881278538812787,
    ),
}
CHAOS_GOLDEN_BASE = dict(population=120, duration_hours=6.0, directory_replication_k=2)

#: Every kind of window, overlapping the way a hand-written schedule may:
#: two partitions of different localities open together, a global and a
#: locality-scoped spike open together (they compose in schedule order),
#: the bursty window spans a partition heal and both spike starts
#: (partition-before-bursty order matters), then a mass failure.
FAULT_SCHEDULE = (
    PartitionSpec(locality=0, start_ms=hours(1), heal_ms=hours(1) + minutes(15)),
    PartitionSpec(
        locality=1, start_ms=hours(1) + minutes(5), heal_ms=hours(1) + minutes(20)
    ),
    LatencySpikeSpec(
        start_ms=hours(1) + minutes(10),
        end_ms=hours(2.5),
        multiplier=2.0,
        additive_ms=20.0,
    ),
    LatencySpikeSpec(
        start_ms=hours(2),
        end_ms=hours(3),
        multiplier=1.5,
        additive_ms=50.0,
        locality=1,
    ),
    BurstyLossSpec(
        p_good_to_bad=0.05,
        p_bad_to_good=0.3,
        loss_bad=0.9,
        start_ms=hours(1) + minutes(10),
        end_ms=hours(2.25),
    ),
    MassFailureSpec(at_ms=hours(4), fraction=0.3, locality=0),
)

SEED = 1


def golden_config() -> ExperimentConfig:
    return ExperimentConfig.scaled(
        population=120,
        duration_hours=6.0,
        num_websites=6,
        num_active_websites=2,
        num_localities=2,
        objects_per_website=40,
    )


def run_world(protocol: str, firehose: bool, config: ExperimentConfig = None):
    """Run the golden scenario; return (sha_or_None, hit_ratio, events)."""
    world = build_world(protocol, config or golden_config(), SEED)
    fingerprint = StreamFingerprint(world.sim.trace) if firehose else None
    world.run()
    digest = fingerprint.hexdigest() if firehose else None
    return digest, world.system.metrics.hit_ratio(), world.sim.events_executed


@pytest.mark.slow
@pytest.mark.parametrize("protocol", sorted(GOLDEN))
def test_golden_stream_fingerprint(protocol):
    """The full ordered event stream matches the pinned golden hash."""
    sha, hit_ratio, _ = run_world(protocol, firehose=True)
    golden_sha, golden_hit = GOLDEN[protocol]
    assert sha == golden_sha
    assert hit_ratio == golden_hit  # exact: same floats in the same order


@pytest.mark.slow
def test_golden_faulted_stream_fingerprint():
    """The golden scenario under a fixed fault schedule, event for event:
    which deliveries are cut or lost, which legs are slowed by how much,
    and every draw from the ``faults`` RNG stream."""
    config = golden_config().replace(fault_schedule=FAULT_SCHEDULE)
    sha, hit_ratio, _ = run_world("flower", firehose=True, config=config)
    assert (sha, hit_ratio) == GOLDEN_FAULTED


@pytest.mark.slow
@pytest.mark.parametrize("phase", sorted(GOLDEN_CHAOS))
def test_golden_chaos_stream_fingerprint(phase):
    """A whole chaos run, event for event: the plan's surges, overload
    windows and seeder deaths installed from ``fault_schedule``, the
    auditor's ticks and the phase markers around them."""
    from repro.chaos import generate_plan, run_chaos

    protocol, overrides, opt_ins, golden_sha, golden_hit = GOLDEN_CHAOS[phase]
    config = ExperimentConfig.scaled(**CHAOS_GOLDEN_BASE, **overrides)
    plan = generate_plan(
        1,
        horizon_ms=config.duration_ms,
        num_localities=config.num_localities,
        num_websites=config.num_websites,
        intensity=1.5,
        population=config.population,
        **opt_ins,
    )
    assert phase in {p.kind for p in plan.phases}
    report = run_chaos(
        protocol, config, plan, seed=SEED, results_dir=None, collect_fingerprint=True
    )
    assert report.ok
    assert (report.fingerprint, report.result.hit_ratio) == (golden_sha, golden_hit)


@pytest.mark.slow
def test_overload_off_matches_the_golden_stream():
    """Overload machinery disabled is the golden build, bit for bit.

    The overload extension (open-loop arrivals, bounded admission
    queues, replica-aware shedding) keeps per-role counters
    unconditionally -- pure state -- while every event it schedules,
    every RNG draw and every wire-format change is gated: the open-loop
    process is not even constructed at rate 0, the admission queue only
    engages at ``directory_queue_limit > 0``, and shed/partition traffic
    needs ``overload_shedding``.  Varying the harmless service-time knob
    with everything else off must reproduce the exact pinned
    fingerprint; if this test moves, some overload code leaked outside
    its gate.
    """
    config = golden_config().replace(
        openloop_rate_qps=0.0,
        directory_queue_limit=0,
        directory_service_ms=55.0,
        overload_shedding=False,
    )
    sha, hit_ratio, _ = run_world("flower", firehose=True, config=config)
    golden_sha, golden_hit = GOLDEN["flower"]
    assert sha == golden_sha
    assert hit_ratio == golden_hit


@pytest.mark.slow
def test_hints_and_rebalance_off_matches_the_golden_stream():
    """Redirect hints and content rebalancing disabled is the golden build.

    The reactive overload plane (queue-depth hints piggybacked on
    directory replies, load vectors on replica syncs, hot-key fetch
    counters and rebalance spills) is gated on ``redirect_hints`` /
    ``rebalance``: with both off no reply grows a ``load_hint`` field, no
    fetch is counted, and no spill or adoption is ever scheduled.
    Varying every harmless knob of the plane with the gates closed must
    reproduce the exact pinned fingerprint; if this test moves, some
    hint/rebalance code leaked outside its gate.
    """
    config = golden_config().replace(
        redirect_hints=False,
        rebalance=False,
        rebalance_cooldown_rounds=0,
        rebalance_budget_kb=64.0,
        rebalance_max_keys=9,
    )
    sha, hit_ratio, _ = run_world("flower", firehose=True, config=config)
    golden_sha, golden_hit = GOLDEN["flower"]
    assert sha == golden_sha
    assert hit_ratio == golden_hit


@pytest.mark.slow
def test_swarming_off_matches_the_golden_stream():
    """Swarming and bandwidth disabled is the golden build, bit for bit.

    The swarming extension (object sizes, chunked multi-source
    transfers, the fair-share bandwidth model) is gated on ``swarming``
    and ``bandwidth_kbps > 0``: with both off no size model is
    installed, no bandwidth model attaches to the network, no flow or
    swarm event is ever scheduled, and provider replies carry no extra
    hints.  Varying every harmless swarm knob with the gates closed must
    reproduce the exact pinned fingerprint; if this test moves, some
    swarming code leaked outside its gate.
    """
    config = golden_config().replace(
        swarming=False,
        swarm_parallel=8,
        swarm_sources=2,
        swarm_resume=False,
        swarm_replicate=3,
        swarm_chunk_kb=16,
        object_mean_kb=512.0,
        bandwidth_kbps=0.0,
        bandwidth_slow_fraction=0.9,
        bandwidth_slow_factor=4.0,
    )
    sha, hit_ratio, _ = run_world("flower", firehose=True, config=config)
    golden_sha, golden_hit = GOLDEN["flower"]
    assert sha == golden_sha
    assert hit_ratio == golden_hit


@pytest.mark.slow
def test_same_seed_reruns_are_bit_identical():
    """Two fresh worlds from the same seed produce the same stream."""
    first = run_world("flower", firehose=True)
    second = run_world("flower", firehose=True)
    assert first == second


#: Pinned goldens of the sharded engine (its own model: exact binning,
#: per-shard origin servers, bus-floored cross-shard arrivals -- see
#: docs/PROTOCOLS.md section 10).  Derived at workers=1 for SHARDED_CONFIG
#: below, seed 1, 4 shards; the invariance tests require workers=2 and 4 to
#: reproduce these exact hashes, which is what makes the worker count
#: unobservable in the results.
SHARDED_GOLDEN_HIT = 0.28780487804878047
SHARDED_GOLDEN_FINGERPRINTS = {
    "0": "a39f505a28a99ab7d26344661eb39c20d7ea8515b782e0efe91cd48aae7d78ce",
    "1": "6046684ccee1a6b17585c7cf0ca2302ed68fd3d3f105bab25975fefe8b52b91c",
    "2": "ca641471705ab089b9cef83f77813b977efa609dfc1381127c6dbd9d5f62babd",
    "3": "1d83023183373833450f9c1e85fbc1f8af8b20ee44ae0a5ddd3c498c40bc032d",
}


def sharded_config() -> ExperimentConfig:
    return ExperimentConfig.scaled(
        population=96,
        duration_hours=1.0,
        num_websites=4,
        num_active_websites=2,
        num_localities=4,
        objects_per_website=30,
    )


def run_sharded(workers: int, config: ExperimentConfig = None):
    from repro.experiments.sharded import run_sharded_experiment

    return run_sharded_experiment(
        "flower",
        config or sharded_config(),
        seed=SEED,
        workers=workers,
        fingerprint=True,
    )


@pytest.fixture(scope="module")
def sharded_reference():
    """The workers=1 sharded run, shared by the invariance tests."""
    return run_sharded(workers=1)


@pytest.mark.slow
def test_sharded_golden_fingerprints(sharded_reference):
    """The sharded engine's per-shard streams match their pinned goldens."""
    sharded = sharded_reference.extra["sharded"]
    assert sharded["fingerprints"] == SHARDED_GOLDEN_FINGERPRINTS
    assert sharded_reference.hit_ratio == SHARDED_GOLDEN_HIT


@pytest.mark.slow
@pytest.mark.parametrize("workers", [2, 4])
def test_sharded_worker_count_invariance(sharded_reference, workers):
    """workers=2/4 reproduce the workers=1 streams and merged metrics exactly.

    Worker count decides which *process* hosts a shard, nothing else: the
    same canonical bus merge runs in-process and in the parent hub, so every
    shard sees the identical injected sequence.  Any drift here means the
    bus ordering (or something upstream of it) leaked host state into the
    simulation.
    """
    result = run_sharded(workers=workers)
    reference = sharded_reference
    assert (
        result.extra["sharded"]["fingerprints"]
        == reference.extra["sharded"]["fingerprints"]
    )
    assert result.hit_ratio == reference.hit_ratio
    assert result.queries == reference.queries
    assert result.mean_lookup_latency_ms == reference.mean_lookup_latency_ms
    assert result.events_executed == reference.events_executed
    assert result.extra["message_counts"] == reference.extra["message_counts"]
    assert result.extra["drop_counts"] == reference.extra["drop_counts"]


_merge_rows = st.lists(
    st.tuples(
        st.integers(0, 3).map(float),  # few distinct times: ties everywhere
        st.integers(0, 2),
        st.integers(0, 2),
        st.integers(0, 1),
        st.sampled_from(sorted(ALL_OUTCOMES)),
        st.sampled_from([0.0, 12.5, 300.0]),
        st.sampled_from([0.0, 40.0]),
        st.integers(0, 2),
    ),
    max_size=24,
)


@settings(max_examples=150, deadline=None)
@given(_merge_rows, st.randoms(use_true_random=False))
def test_shard_records_merge_in_full_sort_order(rows, rng):
    """The merged collector holds exactly ``sorted(all QueryRecord rows)``
    however the rows were dealt to shards and however a shard ordered the
    rows of one instant -- which is what makes shard iteration order and
    worker count unobservable in the merged metrics."""
    from repro.experiments.sharded import merge_records

    rows = [
        QueryRecord(time, website, (website, index), *rest)
        for time, website, index, *rest in rows
    ]
    shards = [MetricsCollector() for __ in range(3)]
    dealt = [(rng.randrange(3), rng.random(), row) for row in rows]
    # A shard records in time order; its ties fall in any order.
    for shard, __, row in sorted(dealt, key=lambda d: (d[2].time, d[1])):
        shards[shard].record(
            row.time, row.object_key, row.locality, row.outcome, *row[5:]
        )
    merged = merge_records([shard.records for shard in shards])
    assert merged.records == sorted(rows)
    assert merged.hits == sum(1 for row in rows if row.outcome in HIT_OUTCOMES)


def test_shard_totals_fold():
    """Shard totals are ``world_totals`` dicts: counts add at every depth,
    per-directory lists concatenate, disjoint maps union, and the queue
    high-water mark is a maximum, not a sum."""
    from repro.experiments.sharded import _fold

    def totals(events, sent, peak, loads, petal):
        return {
            "events_executed": events,
            "extra": {
                "message_counts": sent,
                "overload": {
                    "peak_queue_depth": peak,
                    "directory_loads": loads,
                    "instances": {petal: 1},
                },
            },
        }

    merged = {}
    _fold(merged, totals(10, {"chord.route": 2}, 3, [4], "0:0"))
    _fold(merged, totals(5, {"chord.route": 1, "flower.query": 7}, 2, [1, 6], "0:1"))
    assert merged == {
        "events_executed": 15,
        "extra": {
            "message_counts": {"chord.route": 3, "flower.query": 7},
            "overload": {
                "peak_queue_depth": 3,
                "directory_loads": [4, 1, 6],
                "instances": {"0:0": 1, "0:1": 1},
            },
        },
    }


@pytest.mark.slow
def test_sharded_faults_worker_count_invariance():
    """The fault plane under the sharded engine: one controller per shard,
    each polling its own clock.  The schedule is FAULT_SCHEDULE squeezed
    into the sharded scenario's hour; hosting the shards in two processes
    must change neither a shard's stream nor what was dropped and why."""
    schedule = (
        PartitionSpec(locality=0, start_ms=minutes(10), heal_ms=minutes(25)),
        PartitionSpec(locality=2, start_ms=minutes(15), heal_ms=minutes(30)),
        LatencySpikeSpec(
            start_ms=minutes(20), end_ms=minutes(40), multiplier=2.0, additive_ms=20.0
        ),
        LatencySpikeSpec(
            start_ms=minutes(35),
            end_ms=minutes(50),
            multiplier=1.5,
            additive_ms=50.0,
            locality=1,
        ),
        BurstyLossSpec(
            p_good_to_bad=0.05,
            p_bad_to_good=0.3,
            loss_bad=0.9,
            start_ms=minutes(20),
            end_ms=minutes(45),
        ),
        MassFailureSpec(at_ms=minutes(52), fraction=0.3, locality=3),
        # Split over the four shards 3 + 3 + 2 + 2, pinned from each
        # shard's own "chaos" stream.
        ChurnSurgeSpec(
            start_ms=minutes(5), duration_ms=minutes(30), arrivals=10, hot_website=1
        ),
    )
    config = sharded_config().replace(fault_schedule=schedule)
    one, two = (run_sharded(workers, config) for workers in (1, 2))
    drops = one.extra["drop_counts"]
    assert drops["partition"] > 0 and drops["loss"] > 0
    assert two.extra["sharded"]["fingerprints"] == one.extra["sharded"]["fingerprints"]
    assert two.extra["drop_counts"] == drops
    assert two.hit_ratio == one.hit_ratio
    assert two.events_executed == one.events_executed


@given(st.integers(1, 10_000), st.integers(1, 16))
def test_shard_schedule_splits_a_churn_surge_exactly(arrivals, num_shards):
    """Per-shard shares of a surge sum to its ``arrivals``; a shard with a
    zero share carries no surge at all; every other kind is installed
    whole on every shard."""
    from repro.experiments.sharded import shard_schedule

    surge = ChurnSurgeSpec(start_ms=0.0, duration_ms=60.0, arrivals=arrivals)
    wipe = MassFailureSpec(at_ms=30.0, fraction=0.5)
    shares = [
        shard_schedule((wipe, surge), num_shards, shard_id)
        for shard_id in range(num_shards)
    ]
    assert all(share[0] == wipe for share in shares)
    carried = [share[1] for share in shares if len(share) == 2]
    assert sum(spec.arrivals for spec in carried) == arrivals
    assert len(carried) == min(arrivals, num_shards)
    assert all(spec == dataclasses.replace(surge, arrivals=spec.arrivals) for spec in carried)


@pytest.mark.slow
@pytest.mark.parametrize("protocol", sorted(GOLDEN))
def test_tracing_does_not_change_results(protocol):
    """Zero-cost tracing really is observation-only.

    The subscriber-gated emit path skips event construction when nobody
    listens; a bug there (e.g. a payload expression with a side effect
    hidden behind the gate) would make traced and untraced runs diverge.
    """
    _, traced_hit, traced_events = run_world(protocol, firehose=True)
    _, quiet_hit, quiet_events = run_world(protocol, firehose=False)
    assert traced_events == quiet_events
    assert traced_hit == quiet_hit


def _run_observed(protocol, config, seed, acks_travel=False, arm_at_send=False):
    """Everything a run shows of itself except its event count -- and that
    count.  With *acks_travel* an empty fault controller is installed: no
    window ever opens, but a reply may now fail to arrive, so every ACK
    takes the wire as an event of its own.  With *arm_at_send* every RPC
    deadline enters its FIFO at send instead of being armed lazily."""
    world = build_world(protocol, config, seed)
    if acks_travel:
        FaultController(world.sim, world.network)
    if arm_at_send:
        arm_every_deadline_at_send(world.network)
    fingerprint = StreamFingerprint(world.sim.trace)
    world.run()
    network = world.network
    observed = (
        fingerprint.hexdigest(),
        dict(network.kind_counts),
        dict(network.drop_counts),
        network.messages_sent,
        list(world.system.metrics.records),
    )
    return observed, world.sim.events_executed


@pytest.mark.slow
@settings(max_examples=20, deadline=None)
@given(
    protocol=st.sampled_from(["flower", "petalup", "squirrel"]),
    population=st.integers(30, 100),
    quarter_hours=st.integers(2, 8),
    num_localities=st.integers(1, 3),
    mean_uptime_min=st.sampled_from([10.0, 30.0, 60.0]),
    replication=st.sampled_from([0, 2]),
    seed=st.integers(0, 2**16),
)
def test_an_elided_ack_and_a_travelling_ack_run_the_same_world(
    protocol, population, quarter_hours, num_localities, mean_uptime_min, replication, seed
):
    """The oracle of ack elision is the fabric's other path, not a switch:
    the same world, bare (acks settle at delivery) and under an installed
    but empty fault controller (acks travel), emits the same trace stream,
    sends, counts and drops the same messages and records the same queries
    -- and only the bare one saves events."""
    config = ExperimentConfig.scaled(
        population=population,
        duration_hours=quarter_hours / 4,
        num_websites=4,
        num_active_websites=2,
        num_localities=num_localities,
        objects_per_website=30,
        mean_uptime_min=mean_uptime_min,
        directory_replication_k=replication,
    )
    bare, bare_events = _run_observed(protocol, config, seed, acks_travel=False)
    wired, wired_events = _run_observed(protocol, config, seed, acks_travel=True)
    assert bare == wired
    assert bare_events < wired_events


#: Fault planes for the arming oracle, each reaching other arming triggers:
#: churn alone drops requests at dead destinations; loss drops requests and
#: replies; the windows cut links and stretch some past their timeout.
ARMING_FAULTS = {
    "churn only": {},
    "loss": {"message_loss_rate": 0.05},
    "windows": {
        "fault_schedule": (
            PartitionSpec(locality=0, start_ms=minutes(10), heal_ms=minutes(20)),
            LatencySpikeSpec(
                start_ms=minutes(15), end_ms=minutes(25), multiplier=4.0, additive_ms=600.0
            ),
        )
    },
}


@pytest.mark.slow
@settings(max_examples=20, deadline=None)
@given(
    protocol=st.sampled_from(["flower", "petalup", "squirrel"]),
    population=st.integers(30, 100),
    quarter_hours=st.integers(2, 8),
    num_localities=st.integers(1, 3),
    mean_uptime_min=st.sampled_from([10.0, 30.0, 60.0]),
    faults=st.sampled_from(sorted(ARMING_FAULTS)),
    seed=st.integers(0, 2**16),
)
def test_a_lazily_armed_and_an_eagerly_armed_deadline_run_the_same_world(
    protocol, population, quarter_hours, num_localities, mean_uptime_min, faults, seed
):
    """The oracle of lazy arming is the fabric that arms every deadline at
    send: the same world both ways emits the same trace stream, sends,
    counts and drops the same messages and records the same queries.
    Only the event count (and the peak of pending events) may differ, and
    lazy arming never spends more events."""
    config = ExperimentConfig.scaled(
        population=population,
        duration_hours=quarter_hours / 4,
        num_websites=4,
        num_active_websites=2,
        num_localities=num_localities,
        objects_per_website=30,
        mean_uptime_min=mean_uptime_min,
        **ARMING_FAULTS[faults],
    )
    lazy, lazy_events = _run_observed(protocol, config, seed)
    eager, eager_events = _run_observed(protocol, config, seed, arm_at_send=True)
    assert lazy == eager
    assert lazy_events <= eager_events
