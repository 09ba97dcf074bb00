"""One measurement in a fresh interpreter.

``python -m benchmarks.e2e.worker --workload W --seed N --phase P`` sets
the workload up once, optionally runs it once, and prints one JSON
object as the last line of its output.  The parent (``cli.py``) starts
one worker per repetition, so every ``setup_s`` includes the import and
every ``peak_rss_mb`` belongs to exactly one run.

Phases:

``setup``  set up, report ``setup_s``, exit.
``run``    set up, run to the horizon with tracing off, observe.
``trace``  the same run under ``cProfile``, enabled only around the call
           that ``run`` times; the profile is reduced to per-layer self
           times after the run has ended.

Everything is observed from outside, through public attributes: the
simulator is not edited and nothing is subscribed to its trace bus.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import layers, workloads
from .registry import COUNTS, NA

#: Operations per sample of the calibration loop (a heap push, usually a
#: pop, and a dict store each): about 20 ms, long enough to time.
_SAMPLE_OPS = 40_000
#: The loop is sampled this often while a run is being timed.
_SAMPLE_PERIOD_S = 0.25
#: The loop speed ``run_s`` is corrected to -- this host class's median.
#: Only the ratio to it matters, and only for comparing across hosts.
REFERENCE_OPS_PER_S = 1_800_000.0


def _calibration_loop() -> float:
    """Seconds one sample of a fixed pure-Python loop takes right now.

    It touches none of ``repro``, so it tells a slow machine window from
    a slow commit.
    """
    heap: List[Tuple[float, int]] = []
    seen: Dict[int, float] = {}
    start = time.perf_counter()
    for i in range(_SAMPLE_OPS):
        heappush(heap, ((i * 7919) % 10007 / 10007.0, i))
        if len(heap) > 64:
            when, serial = heappop(heap)
            seen[serial & 1023] = when
    return time.perf_counter() - start


class SpeedSampler:
    """Samples the host's speed from inside a run it does not own.

    This host's speed drifts by +-20 % over tens of seconds, which no
    number of repetitions averages out.  An interval timer interrupts
    whatever is running -- ``world.run``, ``run_chaos`` -- every quarter
    second and times the calibration loop there and then, so each
    stretch of the run is paired with the speed the host had during it.
    """

    def __init__(self) -> None:
        self.loop_s: List[float] = []

    def _sample(self, _signum, _frame) -> None:
        self.loop_s.append(_calibration_loop())

    def __enter__(self) -> "SpeedSampler":
        # One sample before the clock starts, so that a run shorter than
        # a period (``--smoke``) still has a speed.
        self.loop_s.append(_calibration_loop())
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, _SAMPLE_PERIOD_S, _SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def ops_per_s(self) -> float:
        """Median loop speed over the run."""
        return _SAMPLE_OPS / statistics.median(self.loop_s)

    def run_wall_s(self, wall_s: float) -> float:
        """*wall_s* with the time of the samples taken inside it removed."""
        return wall_s - sum(self.loop_s[1:])

    def corrected(self, wall_s: float) -> float:
        """The run's wall time on a host at the reference speed.

        Every sample stands for one period of the run, in which the work
        done was proportional to the loop's speed at that moment.
        """
        reference_loop_s = _SAMPLE_OPS / REFERENCE_OPS_PER_S
        relative_speed = statistics.fmean(reference_loop_s / s for s in self.loop_s)
        return self.run_wall_s(wall_s) * relative_speed


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _cdf_percentile(points: List[Tuple[float, float]], q: float) -> float:
    """The smallest CDF point whose cumulative fraction reaches *q* %.

    ``ExperimentResult.lookup_cdf`` keeps every ``n // 250``-th sorted
    sample, so this is the nearest-rank percentile rounded up to the
    next kept sample (at most 0.4 % of the sample further out).
    """
    for value, fraction in points:
        if fraction >= q / 100.0:
            return value
    return points[-1][0]


def _no_counts() -> Dict[str, Any]:
    """Every count by name, ``n/a`` until something observable fills it."""
    return {count.name: NA for count in COUNTS}


#: The end-to-end metrics of planes that are off unless a workload says so.
_PLANES_OFF = {"shed_ratio": NA, "offload_ratio": NA, "audit_violations": NA}


def _kind_totals(kind_counts: Dict[str, int]) -> Dict[str, int]:
    """Messages by the layer their kind prefix names."""
    prefixes = {
        "chord.": "dht.msgs",
        "gossip.": "gossip.msgs",
        "flower.": "cdn.flower.msgs",
        "swarm.": "cdn.flower.msgs",
        "squirrel.": "cdn.squirrel.msgs",
        "server.": "cdn.server.msgs",
    }
    totals = {name: 0 for name in prefixes.values()}
    for kind, count in kind_counts.items():
        for prefix, name in prefixes.items():
            if kind.startswith(prefix):
                totals[name] += count
                break
    return totals


def _failed_ratio(outcomes: Dict[str, int], issued: int, overdue_open: int) -> float:
    """Share of issued queries that failed, were shed, or were lost."""
    from repro.metrics.collector import FAILED_OUTCOMES, SHED_OUTCOMES

    failed = sum(outcomes.get(o, 0) for o in FAILED_OUTCOMES | SHED_OUTCOMES)
    return (failed + overdue_open) / issued


# ---------------------------------------------------------------------------
# The three ways a workload runs.  Each ``prepare_*`` does the set-up and
# returns ``(run, observe)``: ``run()`` is the timed call, ``observe(out)``
# reads the results afterwards.
# ---------------------------------------------------------------------------


def prepare_world(workload, seed: int, scale: float, _workers: int):
    config = workload.make_config(scale)
    from repro.experiments.runner import build_world

    world = build_world(workload.protocol, config, seed)
    counters = world.sim.trace.counters
    horizon = config.duration_ms
    issued_before_grace: List[int] = []

    def run() -> None:
        # Two back-to-back calls tile the timeline exactly like one; the
        # stop in between only reads how many queries had been issued
        # when the in-flight grace began.
        world.run(max(horizon - workloads.GRACE_MS, 0.0))
        issued_before_grace.append(counters["cdn.query"])
        world.run()

    def observe(_out) -> Dict[str, Any]:
        from repro.metrics.collector import ALL_OUTCOMES, SERVED_OUTCOMES
        from repro.metrics.distribution import Distribution

        sim, network, system = world.sim, world.network, world.system
        metrics = system.metrics
        records = metrics.records
        issued = counters["cdn.query"]
        open_at_end = issued - counters["cdn.query_done"]
        in_grace = issued - issued_before_grace[0]
        overdue_open = max(0, open_at_end - in_grace)
        outcomes = {o: metrics.outcome_count(o) for o in ALL_OUTCOMES}
        lookups = Distribution(
            [
                r.lookup_latency_ms
                for r in records
                if r.outcome in SERVED_OUTCOMES and r.outcome != "hit_local"
            ]
        )
        sim_metrics = {
            "hit_ratio": metrics.hit_ratio(),
            "lookup_ms_p50": lookups.percentile(50.0),
            "lookup_ms_p99": lookups.percentile(99.0),
            "transfer_ms_mean": metrics.mean_transfer_ms(),
            "failed_ratio": _failed_ratio(outcomes, issued, overdue_open),
            **_PLANES_OFF,
        }
        counts = _no_counts()
        counts.update({
            "sim.events": sim.events_executed,
            "sim.peak_pending": sim.peak_pending_events,
            "net.msgs": network.messages_sent,
            "net.drops": sum(network.drop_counts.values()),
            "net.rpc_retries": counters["net.rpc_retry"],
            "dht.lookups": counters["chord.lookup"],
            "dht.reroutes": counters["chord.route_reroute"],
            "workload.arrivals": world.churn.arrivals,
            "workload.departures": world.churn.departures,
            "cdn.base.queries_issued": issued,
            "cdn.base.queries_open_at_end": open_at_end,
            "metrics.records": len(records),
        })
        counts.update(_kind_totals(network.kind_counts))
        if world.openloop is not None:
            counts["workload.openloop_issued"] = world.openloop.stats["issued"]
            counts["workload.openloop_candidates"] = world.openloop.stats["candidates"]
        stats = getattr(system, "stats", None)
        if stats is not None:
            snapshot = stats()
            overload, swarm = snapshot.overload, snapshot.swarm
            counts.update(
                {
                    "cdn.flower.directories": overload.directories,
                    "cdn.flower.queries_shed": overload.queries_shed,
                    "cdn.flower.members_shed": overload.members_shed,
                    "cdn.flower.hint_hops": overload.hint_hops,
                    "cdn.flower.hint_hit_ratio": (
                        overload.hint_hits / overload.hint_hops
                        if overload.hint_hops
                        else 0.0
                    ),
                    "cdn.flower.rebalance_spills": overload.rebalance_spills,
                    "cdn.flower.rebalance_adoptions": overload.rebalance_adoptions,
                    "cdn.flower.peak_queue_depth": overload.peak_queue_depth,
                    "cdn.swarm.transfers_started": swarm.transfers_started,
                    "cdn.swarm.transfers_degraded": swarm.transfers_degraded,
                    "cdn.swarm.transfers_failed": swarm.transfers_failed,
                    "cdn.swarm.restarts": swarm.restarts,
                    "cdn.swarm.chunk_retries": swarm.chunk_retries,
                }
            )
            if swarm.bandwidth is not None:
                for key in ("flows_started", "flows_aborted", "peak_concurrent"):
                    counts[f"net.bandwidth.{key}"] = swarm.bandwidth[key]
            if config.directory_queue_limit > 0:
                sim_metrics["shed_ratio"] = outcomes["shed_overload"] / issued
            if config.swarming:
                moved = swarm.p2p_bytes + swarm.origin_bytes
                sim_metrics["offload_ratio"] = swarm.p2p_bytes / moved
        return {
            "queries": len(records),
            "issued": issued,
            "overdue_open": overdue_open,
            "lookup_samples": len(lookups),
            "local_hits": outcomes["hit_local"],
            "sim": sim_metrics,
            "counts": counts,
        }

    return run, observe


def _observe_result(result, issued: Optional[int], overdue_open: int):
    """What an ``ExperimentResult`` alone says (chaos and sharded runs).

    Both return only the summary, so the percentiles come from its
    250-point ``lookup_cdf`` and ``local_hits`` is reported so the
    parent can check that no ``hit_local`` sample sits in it.
    """
    from repro.metrics.collector import SERVED_OUTCOMES

    outcomes = result.outcome_counts
    served = sum(outcomes.get(o, 0) for o in SERVED_OUTCOMES)
    attempted = issued if issued is not None else result.queries
    extra = result.extra
    counts = _no_counts()
    counts.update({
        "sim.events": result.events_executed,
        "net.msgs": result.messages_sent,
        "net.drops": sum(extra["drop_counts"].values()),
        "workload.arrivals": result.arrivals,
        "workload.departures": result.departures,
        "metrics.records": result.queries,
    })
    counts.update(_kind_totals(extra["message_counts"]))
    return {
        "queries": result.queries,
        "issued": attempted,
        "overdue_open": overdue_open,
        "lookup_samples": served,
        "local_hits": outcomes.get("hit_local", 0),
        "sim": {
            "hit_ratio": result.hit_ratio,
            "lookup_ms_p50": _cdf_percentile(result.lookup_cdf, 50.0),
            "lookup_ms_p99": _cdf_percentile(result.lookup_cdf, 99.0),
            "transfer_ms_mean": result.mean_transfer_ms,
            "failed_ratio": _failed_ratio(outcomes, attempted, overdue_open),
            **_PLANES_OFF,
        },
        "counts": counts,
    }


def prepare_chaos(workload, seed: int, scale: float, _workers: int):
    config = workload.make_config(scale)
    plan = workloads.chaos_plan(config, seed)
    from repro.chaos import run_chaos
    from repro.experiments.runner import build_world

    # ``run_chaos`` builds its own world; this one is built only so that
    # ``setup_s`` means the same thing here as on the other workloads.
    build_world(workload.protocol, config.replace(fault_schedule=plan.faults), seed)

    def run():
        return run_chaos(workload.protocol, config, plan, seed=seed, results_dir=None)

    def observe(report) -> Dict[str, Any]:
        stats = report.stats
        leaked = sum(1 for v in report.violations if v.kind == "query_leaked")
        observed = _observe_result(report.result, stats["queries_opened"], leaked)
        observed["sim"]["audit_violations"] = len(report.violations)
        observed["violations"] = sorted(v.kind for v in report.violations)
        observed["counts"].update(
            {
                "cdn.base.queries_issued": stats["queries_opened"],
                "cdn.base.queries_open_at_end": (
                    stats["queries_opened"] - stats["queries_closed"]
                ),
                "chaos.audits": stats["audits"],
                "chaos.queries_opened": stats["queries_opened"],
                "chaos.reacquired_slots": stats["reacquired_slots"],
            }
        )
        return observed

    return run, observe


def prepare_sharded(workload, seed: int, scale: float, workers: int):
    config = workload.make_config(scale)
    from repro.experiments.sharded import run_sharded_experiment

    def run():
        return run_sharded_experiment(workload.protocol, config, seed, workers=workers)

    def observe(result) -> Dict[str, Any]:
        observed = _observe_result(result, None, 0)
        sharded = result.extra["sharded"]
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        observed["counts"].update(
            {
                "sim.peak_pending": sharded["peak_pending_events"],
                "cdn.flower.directories": result.extra["directories"],
                "sim.sharded.bus_entries": sharded["bus_entries"],
                "sim.sharded.worker_cpu_s": children.ru_utime + children.ru_stime,
            }
        )
        return observed

    return run, observe


PREPARE: Dict[str, Callable] = {
    "world": prepare_world,
    "chaos": prepare_chaos,
    "sharded": prepare_sharded,
}


def _time_traced(run) -> Tuple[Any, Dict[str, Any]]:
    """Run under ``cProfile``, enabled only around the timed call."""
    import cProfile
    import pstats

    import repro

    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    try:
        result = run()
    finally:
        profiler.disable()
    wall_s = time.perf_counter() - started
    table = pstats.Stats(profiler).stats
    self_s = layers.self_times(table, os.path.dirname(repro.__file__))
    return result, {"run_wall_s": wall_s, "self_s": self_s}


def _time_sampled(run) -> Tuple[Any, Dict[str, Any]]:
    """Run with tracing off and the host's speed sampled alongside."""
    with SpeedSampler() as sampler:
        started = time.perf_counter()
        result = run()
        wall_s = time.perf_counter() - started
    return result, {
        "run_wall_s": sampler.run_wall_s(wall_s),
        "run_s": sampler.corrected(wall_s),
        "calibration_ops_per_s": sampler.ops_per_s(),
    }


def _time_forking(run) -> Tuple[Any, Dict[str, Any]]:
    """Run with tracing off, uncorrected.

    A parent that only waits for forked workers shares two cores with
    them: samples taken there would time the contention, not the host,
    and slow the workers.  ``sharded`` on two workers therefore keeps
    its raw wall time.
    """
    started = time.perf_counter()
    result = run()
    wall_s = time.perf_counter() - started
    return result, {"run_wall_s": wall_s, "run_s": wall_s}


def measure(name: str, seed: int, scale: float, phase: str, workers: int) -> Dict:
    workload = workloads.WORKLOADS[name]
    # Set-up is a tenth of a second, too short to sample inside: the
    # host's speed is read just before and just after it instead.
    before = _calibration_loop()
    started = time.perf_counter()
    run, observe = PREPARE[workload.kind](workload, seed, scale, workers)
    setup_wall_s = time.perf_counter() - started
    loop_s = (before + _calibration_loop()) / 2.0
    out: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "phase": phase,
        "setup_wall_s": setup_wall_s,
        "setup_s": setup_wall_s * (_SAMPLE_OPS / REFERENCE_OPS_PER_S) / loop_s,
        "calibration_ops_per_s": _SAMPLE_OPS / loop_s,
    }
    if phase == "setup":
        return out
    if phase == "trace":
        time_run = _time_traced
    elif workload.kind == "sharded" and workers > 1:
        time_run = _time_forking
    else:
        time_run = _time_sampled
    result, timings = time_run(run)
    out.update(timings)
    # Read memory before observing: sorting 230 k latencies is the
    # benchmark's cost, not the simulator's.
    out["peak_rss_mb"] = _rss_mb(resource.RUSAGE_SELF) + (
        _rss_mb(resource.RUSAGE_CHILDREN) if workload.kind == "sharded" else 0.0
    )
    out.update(observe(result))
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.worker")
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--phase", choices=("setup", "run", "trace"), default="run")
    parser.add_argument("--workers", type=int, default=workloads.SHARDED_WORKERS)
    args = parser.parse_args(argv)
    out = measure(args.workload, args.seed, args.scale, args.phase, args.workers)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
