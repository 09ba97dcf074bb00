"""The six workloads, every configuration spelled out here.

Nothing is imported from the sibling ``benchmarks/bench_*.py`` scripts:
those stay editable by later issues, and a benchmark whose inputs move
with them could not compare two commits.  ``repro`` is imported inside
the functions, so the import cost lands in ``setup_s`` where the
worker starts its clock.

Each workload is built from ``(seed, scale)`` only.  ``scale`` is 1.0 for
every recorded number; ``--smoke`` passes 0.1 and shrinks the simulated
duration (and, for ``sharded``, the population), never a protocol knob.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

#: A query still open at the horizon had time to terminate only if it
#: was issued earlier than this before the cut-off (a full instance
#: scan with RPC retries plus the longest queue wait fits in it).
GRACE_MS = 120_000.0

#: ``sharded`` always uses exactly this many worker processes: the
#: host has two cores and the load must not outnumber them.
SHARDED_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: as spelled in ``BENCHMARK.json``.
        kind: how it runs -- ``"world"`` (``build_world`` + ``world.run``),
            ``"chaos"`` (``run_chaos``) or ``"sharded"``
            (``run_sharded_experiment``).
        protocol: the CDN under test.
        make_config: ``scale -> ExperimentConfig``.
        why: one line on what only this workload exercises.
        not_applicable: end-to-end metrics whose plane is off here; they
            are reported as the literal ``n/a``.
        note: printed under the workload's heading, if any.
    """

    name: str
    kind: str
    protocol: str
    make_config: Callable[[float], Any]
    why: str
    not_applicable: Tuple[str, ...]
    note: str = ""


def _steady(scale: float):
    from repro.experiments.config import ExperimentConfig

    return ExperimentConfig.scaled(population=600, duration_hours=24.0 * scale)


def _squirrel(scale: float):
    from repro.experiments.config import ExperimentConfig

    return ExperimentConfig.scaled(population=240, duration_hours=12.0 * scale)


def _overload(scale: float):
    from repro.experiments.config import ExperimentConfig

    population = 100
    duration_hours = 2.5 * scale
    hour_ms = 3_600_000.0
    return ExperimentConfig.scaled(
        population=population,
        duration_hours=duration_hours,
        num_websites=6,
        num_active_websites=2,
        num_localities=2,
        # A catalog several times the per-peer cache: open-loop repeats
        # keep missing, so directories see sustained query pressure.
        objects_per_website=120,
        peer_cache_capacity=15,
        directory_replication_k=2,
        directory_load_limit=12,
        max_instances=8,
        openloop_rate_qps=population / 6.0,
        openloop_diurnal_amplitude=0.25,
        # One regional flash crowd at half time: 10 min ramp to 2x in
        # locality 0, then a 50 h decay constant, i.e. a plateau.
        openloop_surges=(
            (
                duration_hours / 2.0 * hour_ms,
                600_000.0,
                2.0,
                50.0 * hour_ms,
                0,
                -1,
                0.9,
            ),
        ),
        directory_queue_limit=6,
        directory_service_ms=400.0,
        overload_shedding=True,
        redirect_hints=True,
        rebalance=True,
        rebalance_cooldown_rounds=0,
        rebalance_max_keys=32,
        rebalance_budget_kb=8192.0,
    )


def _swarm(scale: float):
    from repro.experiments.config import ExperimentConfig

    return ExperimentConfig.scaled(
        population=400,
        duration_hours=12.0 * scale,
        num_websites=6,
        num_active_websites=2,
        num_localities=2,
        # A smaller catalog exhausts the never-repeat query streams
        # within hours and the second half of the run would be idle.
        objects_per_website=400,
        swarming=True,
        swarm_chunk_kb=64,
        object_mean_kb=256.0,
        object_max_kb=4096.0,
        bandwidth_kbps=4000.0,
        bandwidth_slow_fraction=0.2,
        bandwidth_slow_factor=8.0,
        swarm_parallel=4,
        swarm_sources=4,
        swarm_resume=True,
        swarm_replicate=2,
    )


def _chaos(scale: float):
    from repro.experiments.config import ExperimentConfig

    return ExperimentConfig.scaled(
        population=240,
        duration_hours=24.0 * scale,
        directory_replication_k=2,
    )


def _sharded(scale: float):
    from repro.experiments.config import ExperimentConfig

    # Building 6 000 peers costs more than a tenth of this one-hour run,
    # so the smoke run shrinks the population too (the identity pool
    # must still cover the 16 x 8 seed directories).
    population = 6000 if scale >= 1.0 else 1200
    return ExperimentConfig.scaled(
        population=population,
        duration_hours=1.0 * scale,
        num_websites=16,
        num_active_websites=4,
        num_localities=8,
        objects_per_website=100,
    )


def chaos_plan(config, seed: int):
    """The chaos workload's plan: a pure function of ``(config, seed)``."""
    from repro.chaos import generate_plan

    return generate_plan(
        seed,
        horizon_ms=config.duration_ms,
        num_localities=config.num_localities,
        num_websites=config.num_websites,
        intensity=1.5,
        population=config.population,
    )


#: Seeds of 1..17 on which the seed commit's auditor reports nothing.
#: On 3 and 20 it already reports ``duplicate_directory`` -- a defect the
#: ROADMAP's invariants item owns -- and a workload on which operations
#: fail at the baseline cannot tell a regression from it.  The driver of
#: ``BENCHMARK.json`` picks its own seeds, so for ``chaos`` they index
#: this list; a person's ``--seed N`` is used as given.
CHAOS_CLEAN_SEEDS = (1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17)


def driver_seed(name: str, seed: int) -> int:
    """The seed a workload runs with when the driver asked for *seed*."""
    if name == "chaos":
        return CHAOS_CLEAN_SEEDS[(seed - 1) % len(CHAOS_CLEAN_SEEDS)]
    return seed


_OVERLOAD_ONLY = ("shed_ratio",)
_SWARM_ONLY = ("offload_ratio",)
_CHAOS_ONLY = ("audit_violations",)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "steady",
            "world",
            "flower",
            _steady,
            "default path, all planes off: ~68 events per query, almost all "
            "periodic maintenance, so sim, net.transport, dht and gossip dominate",
            _OVERLOAD_ONLY + _SWARM_ONLY + _CHAOS_ONLY,
        ),
        Workload(
            "squirrel",
            "world",
            "squirrel",
            _squirrel,
            "one global Chord ring: dht + net.transport + sim only, "
            "cdn.flower and gossip idle, so a Flower-only change must not move it",
            _OVERLOAD_ONLY + _SWARM_ONLY + _CHAOS_ONLY,
        ),
        Workload(
            "overload",
            "world",
            "petalup",
            _overload,
            "open loop in simulated time, ~5 events per query: workload generator, "
            "cdn.flower handlers, cdn.base and metrics do the work, dht under 1%",
            _SWARM_ONLY + _CHAOS_ONLY,
            note="open loop: arrivals are scheduled in simulated time, so the "
            "generator is never late (lateness 0 by construction)",
        ),
        Workload(
            "swarm",
            "world",
            "flower",
            _swarm,
            "chunked multi-source transfers under a bandwidth model: the only "
            "workload where cdn.swarm and net.bandwidth run at all",
            _OVERLOAD_ONLY + _CHAOS_ONLY,
        ),
        Workload(
            "chaos",
            "chaos",
            "flower",
            _chaos,
            "fault plan + online auditor + replication k=2: the only workload with "
            "a trace subscriber, so net.faults, chaos and sim.trace cost shows here",
            _OVERLOAD_ONLY + _SWARM_ONLY,
        ),
        Workload(
            "sharded",
            "sharded",
            "flower",
            _sharded,
            "8 locality shards in lockstep windows over the cross-shard bus: "
            "sim.sharded + net.shardnet; 2 forked workers for a person, one process "
            "for the driver (2-worker wall time is too unsteady to bound)",
            _OVERLOAD_ONLY + _SWARM_ONLY + _CHAOS_ONLY,
        ),
    )
}
