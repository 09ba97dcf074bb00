"""End-to-end engine benchmark with a tracked JSON baseline.

Unlike the pytest-benchmark micro-loops in :mod:`benchmarks.bench_micro`,
this script times the *whole* canonical Flower-CDN scenario -- world
construction excluded, ``world.run()`` only -- and reports the three
numbers the performance work is tracked by:

- **events/sec** -- simulator dispatch throughput,
- **queries/sec** -- end-to-end application throughput,
- **peak pending events** -- the high-water mark of the event queue.

It also records the run's behaviour fingerprint (``queries``,
``hit_ratio``, ``messages_sent``): an optimization that changes any of
them is a behaviour change, not a speedup, and must be rejected.
``events_executed`` is reported but is *not* part of it -- an engine
change may legitimately execute fewer events for the same simulation
(the timeout FIFOs removed a fifth of them), which is also why nothing
here is gated on events/sec.

Usage::

    # Full canonical measurement, written to BENCH_engine.json:
    PYTHONPATH=src python benchmarks/bench_engine.py

    # Interleaved A/B against an unmodified checkout (best-of-N of each,
    # alternating subprocesses so machine noise hits both sides equally):
    PYTHONPATH=src python benchmarks/bench_engine.py \
        --baseline-src /tmp/baseline-wt/src

    # CI smoke: quick scenario + machine-normalized regression gate:
    PYTHONPATH=src python benchmarks/bench_engine.py --quick \
        --check BENCH_engine.json

Methodology notes:

- Timings use :func:`time.process_time` (CPU time), which is immune to
  wall-clock scheduling noise but not to frequency scaling or noisy
  cache neighbours; each configuration is therefore run ``--rounds``
  times and the **minimum** is reported (the minimum is the run with the
  least interference).
- A/B comparisons alternate AFTER/BEFORE subprocesses within each round
  rather than running all of one side first, so slow machine windows
  penalise both sides.
- ``--check`` never compares raw seconds across machines.  It multiplies
  the fixed quick scenario's run time by the speed of a pure-Python
  calibration loop timed on the same machine just before and after it
  (``normalized_seconds``: the run's cost in calibration-loop operations)
  and compares that against the one stored in the JSON.  Throughput more
  than 30% below the reference -- the scenario costing more than
  1/(1 - 0.30) times the stored figure -- fails the check.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

#: Regression threshold for ``--check``: fail when the machine-normalized
#: speed (1 / normalized seconds of the fixed scenario) falls below
#: (1 - threshold) of the stored reference.
REGRESSION_THRESHOLD = 0.30

CANONICAL = {"population": 240, "duration_hours": 12.0}
QUICK = {"population": 120, "duration_hours": 3.0}
PROTOCOL = "flower"
SEED = 1

#: Sharded-engine scaling scenarios (``--sharded-curve``).  8 localities ->
#: 8 shards, so worker counts 1/2/4/8 all divide the map.
SHARDED_CANONICAL = {
    "population": 2000,
    "duration_hours": 1.0,
    "num_websites": 16,
    "num_active_websites": 4,
    "num_localities": 8,
    "objects_per_website": 100,
}
SHARDED_QUICK = {
    "population": 480,
    "duration_hours": 0.5,
    "num_websites": 8,
    "num_active_websites": 2,
    "num_localities": 8,
    "objects_per_website": 50,
}
SHARDED_WORKERS = [1, 2, 4, 8]
SHARDED_QUICK_WORKERS = [1, 2]

#: Large-population demonstration run (``--scale-run``).
SCALE_RUN = {
    "population": 50_000,
    "duration_hours": 0.5,
    "num_websites": 16,
    "num_active_websites": 4,
    "num_localities": 8,
    "objects_per_website": 100,
}
SCALE_RUN_WORKERS = 8


# --------------------------------------------------------------- measurement
def measure_once(quick: bool) -> Dict[str, Any]:
    """Build the scenario world, run it under a CPU timer, report stats."""
    # Imported lazily so ``--one-shot`` subprocesses pay import cost before
    # the timer starts, and so the module can be imported without PYTHONPATH.
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import build_world

    params = QUICK if quick else CANONICAL
    config = ExperimentConfig.scaled(**params)
    world = build_world(PROTOCOL, config, SEED)
    _, seconds, cost = _priced(time.process_time, world.run)
    sim = world.sim
    metrics = world.system.metrics
    queries = len(metrics.records)
    result = {
        "seconds": round(seconds, 4),
        "events_executed": sim.events_executed,
        "events_per_sec": round(sim.events_executed / seconds, 1),
        "queries": queries,
        "queries_per_sec": round(queries / seconds, 1),
        "hit_ratio": metrics.hit_ratio(),
        "messages_sent": world.network.messages_sent,
        "normalized_seconds": cost,
    }
    # Older checkouts (the "before" side of an A/B) predate peak tracking;
    # omit the key there rather than report a misleading 0.
    peak = getattr(sim, "peak_pending_events", None)
    if peak is not None:
        result["peak_pending_events"] = peak
    return result


def _priced(clock: Callable[[], float], run: Callable[[], Any]):
    """Time ``run()`` on *clock*; return ``(result, seconds, normalized)``.

    ``normalized`` is the run's cost in calibration-loop operations: its
    seconds times the mean of a calibration taken just before and just
    after it (see :func:`calibrate`).
    """
    calib = calibrate()
    start = clock()
    result = run()
    seconds = clock() - start
    calib = (calib + calibrate()) / 2.0
    return result, seconds, round(seconds * calib, 1)


def best_of(rounds: int, quick: bool) -> Dict[str, Any]:
    """In-process best-of-N: minimum cost, with a fingerprint check."""
    runs = [measure_once(quick) for _ in range(rounds)]
    _assert_deterministic(runs)
    return min(runs, key=lambda r: r["normalized_seconds"])


def _assert_deterministic(runs: List[Dict[str, Any]]) -> None:
    fingerprints = {(r["events_executed"], r["hit_ratio"]) for r in runs}
    if len(fingerprints) != 1:
        raise SystemExit(f"non-deterministic runs: {sorted(fingerprints)}")


# ------------------------------------------------------------- A/B harness
def _one_shot_subprocess(src: str, quick: bool) -> Dict[str, Any]:
    """Run one measurement in a fresh interpreter with *src* on PYTHONPATH."""
    cmd = [sys.executable, __file__, "--one-shot"]
    if quick:
        cmd.append("--quick")
    out = subprocess.run(
        cmd,
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    return json.loads(out.stdout)


def interleaved_ab(
    after_src: str, before_src: str, rounds: int, quick: bool
) -> Dict[str, Any]:
    """Alternate AFTER/BEFORE subprocesses; compare best-of-N to best-of-N."""
    after_runs: List[Dict[str, Any]] = []
    before_runs: List[Dict[str, Any]] = []
    for i in range(rounds):
        a = _one_shot_subprocess(after_src, quick)
        b = _one_shot_subprocess(before_src, quick)
        after_runs.append(a)
        before_runs.append(b)
        print(
            f"  round {i + 1}: after {a['seconds']:.3f}s "
            f"({a['events_per_sec']:,.0f} ev/s)  "
            f"before {b['seconds']:.3f}s ({b['events_per_sec']:,.0f} ev/s)",
            file=sys.stderr,
        )
    _assert_deterministic(after_runs)
    _assert_deterministic(before_runs)
    # The two sides must simulate the *same* system: identical traffic and
    # identical query results, or the speedup is meaningless.  (Not
    # identical event counts: see the module docstring.)
    mismatch = [
        key
        for key in ("queries", "hit_ratio", "messages_sent")
        if after_runs[0][key] != before_runs[0][key]
    ]
    if mismatch:
        raise SystemExit(
            "A/B fingerprint mismatch: "
            + ", ".join(
                f"{key} after={after_runs[0][key]} before={before_runs[0][key]}"
                for key in mismatch
            )
        )
    after = min(after_runs, key=lambda r: r["seconds"])
    before = min(before_runs, key=lambda r: r["seconds"])
    return {
        "after": after,
        "before": before,
        "speedup": round(before["seconds"] / after["seconds"], 3),
    }


# ---------------------------------------------------------- sharded scaling
def _host_cpus() -> int:
    import os

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def measure_sharded_once(params: Dict[str, Any], workers: int) -> Dict[str, Any]:
    """One sharded run under a wall-clock timer.

    Wall clock (``time.perf_counter``), not CPU time: with workers > 1 the
    simulation happens in child processes, which ``time.process_time``
    does not count.  World construction is included (it happens inside the
    workers and cannot be separated out), so these numbers are not directly
    comparable with :func:`measure_once`.
    """
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.sharded import run_sharded_experiment

    config = ExperimentConfig.scaled(**params)
    result, seconds, cost = _priced(
        time.perf_counter,
        lambda: run_sharded_experiment(PROTOCOL, config, seed=SEED, workers=workers),
    )
    sharded = result.extra["sharded"]
    return {
        "workers": workers,
        "seconds": round(seconds, 4),
        "normalized_seconds": cost,
        "events_executed": result.events_executed,
        "events_per_sec": round(result.events_executed / seconds, 1),
        "queries": result.queries,
        "hit_ratio": result.hit_ratio,
        "num_shards": sharded["num_shards"],
        "window_ms": sharded["window_ms"],
        "bus_entries": sharded["bus_entries"],
        "peak_pending_events": sharded["peak_pending_events"],
    }


def sharded_curve(quick: bool, rounds: int) -> Dict[str, Any]:
    """Events/sec at increasing worker counts, invariance-checked.

    Every worker count must reproduce the workers=1 merged results exactly
    (same events, same hit ratio) -- a speedup that changes the simulation
    is a bug, not a speedup.
    """
    params = SHARDED_QUICK if quick else SHARDED_CANONICAL
    worker_counts = SHARDED_QUICK_WORKERS if quick else SHARDED_WORKERS
    curve: List[Dict[str, Any]] = []
    for workers in worker_counts:
        runs = [measure_sharded_once(params, workers) for _ in range(rounds)]
        _assert_deterministic(runs)
        best = min(runs, key=lambda r: r["normalized_seconds"])
        curve.append(best)
        print(
            f"  workers={workers}: {best['seconds']:.2f}s "
            f"({best['events_per_sec']:,.0f} ev/s, "
            f"{best['bus_entries']:,} bus entries)",
            file=sys.stderr,
        )
    reference = curve[0]
    for point in curve[1:]:
        if (
            point["events_executed"] != reference["events_executed"]
            or point["hit_ratio"] != reference["hit_ratio"]
        ):
            raise SystemExit(
                f"worker-count invariance violation: workers={point['workers']} "
                f"produced {point['events_executed']}/{point['hit_ratio']} vs "
                f"{reference['events_executed']}/{reference['hit_ratio']} at 1"
            )
        point["speedup_vs_1"] = round(
            point["events_per_sec"] / reference["events_per_sec"], 3
        )
    reference["speedup_vs_1"] = 1.0
    return {
        "scenario": dict(params),
        "seed": SEED,
        "host_cpus": _host_cpus(),
        "clock": "wall (time.perf_counter); construction included",
        "curve": curve,
    }


def scale_run() -> Dict[str, Any]:
    """One large-population run (P=50k) as a completion demonstration."""
    print(
        f"  scale run: P={SCALE_RUN['population']:,}, "
        f"workers={SCALE_RUN_WORKERS} ...",
        file=sys.stderr,
    )
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.sharded import run_sharded_experiment

    config = ExperimentConfig.scaled(**SCALE_RUN)
    start = time.perf_counter()
    result = run_sharded_experiment(
        PROTOCOL, config, seed=SEED, workers=SCALE_RUN_WORKERS
    )
    seconds = time.perf_counter() - start
    return {
        "scenario": dict(SCALE_RUN),
        "workers": SCALE_RUN_WORKERS,
        "seed": SEED,
        "host_cpus": _host_cpus(),
        "seconds": round(seconds, 2),
        "events_executed": result.events_executed,
        "queries": result.queries,
        "hit_ratio": result.hit_ratio,
        "mean_lookup_latency_ms": result.mean_lookup_latency_ms,
        "mean_transfer_ms": result.mean_transfer_ms,
        "bus_entries": result.extra["sharded"]["bus_entries"],
    }


# -------------------------------------------------------------- calibration
def calibrate() -> float:
    """Pure-Python ops/sec of this machine, for cross-machine normalization.

    The loop exercises the interpreter operations the simulator leans on
    (list append/pop, dict get/set, float arithmetic, function calls) but
    touches none of the simulator's own code, so engine optimizations do
    not move it.  A run's seconds multiplied by this number -- its
    ``normalized_seconds``, the cost in calibration-loop operations -- is
    a machine-relative figure that *can* be compared across hosts.  The
    host's speed also drifts within one process, so every measurement is
    priced with the mean of a calibration taken just before and just
    after it, not with one figure per invocation.
    """
    n = 200_000
    best = float("inf")
    for _ in range(3):
        start = time.process_time()
        acc = 0.0
        stack: List[float] = []
        table: Dict[int, float] = {}
        append = stack.append
        pop = stack.pop
        for i in range(n):
            append(i * 0.5)
            table[i & 1023] = pop() + 1.0
            acc += table.get(i & 1023, 0.0)
        elapsed = time.process_time() - start
        best = min(best, elapsed)
    return round(n / best, 1)


# --------------------------------------------------------------------- main
def run_check(path: Path, rounds: int) -> int:
    """CI gate: quick scenario, machine-normalized, 30% tolerance."""
    stored = json.loads(path.read_text())
    reference = stored.get("quick", {}).get("normalized_seconds")
    if reference is None:
        print(f"{path} has no quick.normalized_seconds reference; run --quick first")
        return 2
    result = best_of(rounds, quick=True)
    if not _within_tolerance("quick scenario", result, reference):
        return 1
    sharded_ref = stored.get("sharded_scaling", {}).get("quick_normalized_seconds")
    if sharded_ref is not None:
        runs = [
            measure_sharded_once(SHARDED_QUICK, workers=1) for _ in range(rounds)
        ]
        _assert_deterministic(runs)
        best = min(runs, key=lambda r: r["normalized_seconds"])
        if not _within_tolerance("sharded quick", best, sharded_ref):
            return 1
    print("OK")
    return 0


def _within_tolerance(label: str, result: Dict[str, Any], reference: float) -> bool:
    cost = result["normalized_seconds"]
    ceiling = reference / (1.0 - REGRESSION_THRESHOLD)
    print(
        f"{label}: {result['seconds']:.3f} s, normalized {cost:,.0f} "
        f"(reference {reference:,.0f}, ceiling {ceiling:,.0f})"
    )
    if cost > ceiling:
        print(f"FAIL: {label} >{REGRESSION_THRESHOLD:.0%} regression")
        return False
    return True


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small scenario (CI smoke)"
    )
    parser.add_argument(
        "--rounds", type=int, default=3, help="best-of-N rounds (default 3)"
    )
    parser.add_argument(
        "--baseline-src",
        help="path to an unmodified src tree; enables interleaved A/B",
    )
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_engine.json"),
        help="where to write/update the JSON report",
    )
    parser.add_argument(
        "--check",
        metavar="JSON",
        help="compare a quick run against the stored normalized reference; "
        f"exit 1 on a >{REGRESSION_THRESHOLD:.0%} regression",
    )
    parser.add_argument(
        "--sharded-curve",
        action="store_true",
        help="measure the sharded engine's worker-scaling curve (wall clock)",
    )
    parser.add_argument(
        "--scale-run",
        action="store_true",
        help=f"run the P={SCALE_RUN['population']:,} sharded demonstration",
    )
    parser.add_argument(
        "--one-shot",
        action="store_true",
        help=argparse.SUPPRESS,  # internal: single measurement as JSON
    )
    args = parser.parse_args(argv)

    if args.one_shot:
        print(json.dumps(measure_once(args.quick)))
        return 0

    if args.check:
        return run_check(Path(args.check), args.rounds)

    if args.sharded_curve or args.scale_run:
        out_path = Path(args.output)
        report = json.loads(out_path.read_text()) if out_path.exists() else {}
        if args.sharded_curve:
            section = "quick" if args.quick else "canonical"
            print(f"sharded scaling curve ({section}):", file=sys.stderr)
            curve = sharded_curve(args.quick, args.rounds)
            scaling = report.setdefault("sharded_scaling", {})
            scaling[section] = curve
            if args.quick:
                scaling["quick_normalized_seconds"] = curve["curve"][0][
                    "normalized_seconds"
                ]
            best = max(curve["curve"], key=lambda p: p["speedup_vs_1"])
            print(
                f"sharded {section}: best speedup {best['speedup_vs_1']}x at "
                f"workers={best['workers']} on a {curve['host_cpus']}-CPU host"
            )
        if args.scale_run:
            entry = scale_run()
            report["sharded_scale_run"] = entry
            print(
                f"scale run: P={entry['scenario']['population']:,} finished in "
                f"{entry['seconds']:.1f}s -- hit {entry['hit_ratio']:.3f}, "
                f"lookup {entry['mean_lookup_latency_ms']:.0f} ms over "
                f"{entry['queries']:,} queries"
            )
        out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out_path}")
        return 0

    out_path = Path(args.output)
    report: Dict[str, Any] = (
        json.loads(out_path.read_text()) if out_path.exists() else {}
    )
    report["schema"] = 1
    report["scenario"] = {
        "protocol": PROTOCOL,
        "seed": SEED,
        "canonical": CANONICAL,
        "quick": QUICK,
    }
    report["machine"] = {
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    calib = calibrate()
    report["calibration_ops_per_sec"] = calib

    if args.baseline_src:
        here_src = str(Path(__file__).resolve().parent.parent / "src")
        print(f"interleaved A/B, {args.rounds} rounds:", file=sys.stderr)
        ab = interleaved_ab(here_src, args.baseline_src, args.rounds, args.quick)
        section = "quick" if args.quick else "canonical"
        report[section] = ab
        entry = ab["after"]
        print(
            f"{section}: {ab['after']['seconds']:.3f} s vs "
            f"{ab['before']['seconds']:.3f} s -> {ab['speedup']}x"
        )
    else:
        result = best_of(args.rounds, args.quick)
        section = "quick" if args.quick else "canonical"
        entry = dict(result)
        existing = report.get(section)
        if isinstance(existing, dict) and "after" in existing:
            existing["after"] = entry
            # The stored "before" may come from another machine: compare
            # normalized figures, never raw seconds.
            before_cost = existing.get("before", {}).get("normalized_seconds")
            if before_cost:
                existing["speedup"] = round(
                    before_cost / entry["normalized_seconds"], 3
                )
        else:
            report[section] = {"after": entry}
        print(
            f"{section}: {entry['seconds']:.3f} s, "
            f"{entry['events_per_sec']:,.0f} ev/s, "
            f"{entry['queries_per_sec']:,.0f} q/s, "
            f"peak queue {entry['peak_pending_events']:,}"
        )
    if args.quick:
        report["quick"]["normalized_seconds"] = entry["normalized_seconds"]

    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
