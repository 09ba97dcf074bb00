"""The one command: run the workloads, print every metric, check, record.

``python -m benchmarks.e2e`` (from the repository root; ``src`` is put on
the workers' path here, so ``PYTHONPATH=src`` is optional) has two
faces:

* for a person: ``[--seed N] [--workload W ...] [--reps R]`` runs each
  workload ``R`` times in fresh processes plus one traced run, prints the
  report, fails on any correctness check and writes
  ``results/seed<N>.json``.  ``--repeat-check`` and ``--smoke`` are the
  two variants described in the README;
* for the driver named in ``BENCHMARK.json``:
  ``--workload W --seed N --seconds S --trace 0|1`` measures one workload
  and prints one JSON object as the last line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from . import registry
from .layers import LAYERS
from .registry import NA
from .workloads import GRACE_MS, SHARDED_WORKERS, WORKLOADS, driver_seed

ROOT = Path(__file__).resolve().parents[2]
RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Fresh-process repetitions per workload unless ``--reps`` says otherwise.
DEFAULT_REPS = 5
MIN_REPS = 3
#: ``setup_s`` is the median of at least this many fresh interpreters.
SETUP_SAMPLES = 9
#: Seed 1 is the default; seed 2 is held back for verifying later claims.
DEFAULT_SEED = 1
SMOKE_SCALE = 0.1
#: No worker may take longer than this (the driver's own limit is 180 s).
WORKER_TIMEOUT_S = 170


class BenchmarkError(RuntimeError):
    """A worker could not be run or did not report."""


def spawn(name: str, seed: int, scale: float, phase: str, workers: int) -> Dict:
    """Run one worker in a fresh interpreter and return what it printed."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    command = [
        sys.executable,
        "-m",
        "benchmarks.e2e.worker",
        "--workload", name,
        "--seed", str(seed),
        "--scale", repr(scale),
        "--phase", phase,
        "--workers", str(workers),
    ]
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{name}/{phase}: worker exceeded {WORKER_TIMEOUT_S} s")
    if done.returncode != 0:
        raise BenchmarkError(
            f"{name}/{phase}: worker exited {done.returncode}\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------


def _relative_iqr(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _exact(run: Dict) -> Dict:
    """The part of a worker's report that must repeat bit for bit."""
    counts = {k: v for k, v in run["counts"].items() if k not in registry.HOST_COUNTS}
    return {
        "queries": run["queries"],
        "issued": run["issued"],
        "lookup_samples": run["lookup_samples"],
        "sim": run["sim"],
        "counts": counts,
    }


def _first_difference(a: Any, b: Any, path: str = "") -> Optional[str]:
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            found = _first_difference(a.get(key), b.get(key), f"{path}{key}.")
            if found:
                return found
        return None
    return None if a == b else f"{path.rstrip('.')}: {a!r} != {b!r}"


def measure(
    name: str,
    seed: int,
    scale: float,
    reps: Optional[int] = None,
    seconds: Optional[float] = None,
    setup_samples: int = SETUP_SAMPLES,
    workers: int = SHARDED_WORKERS,
) -> Dict:
    """Untraced measurement of one workload.

    Runs fresh-process repetitions -- ``reps`` of them, or as many as
    start within ``seconds`` -- then extra set-up-only interpreters until
    ``setup_s`` has ``setup_samples`` samples.  Host metrics are medians
    over the repetitions; simulated metrics and exact counts must be
    identical in all of them and are reported once.  ``workers`` matters
    to ``sharded`` only.
    """
    workload = WORKLOADS[name]
    runs: List[Dict] = []
    started = time.monotonic()
    while True:
        runs.append(spawn(name, seed, scale, "run", workers))
        if reps is not None:
            if len(runs) >= reps:
                break
        elif time.monotonic() - started >= (seconds or 0.0):
            break
    setup_reports = list(runs)
    while len(setup_reports) < setup_samples:
        setup_reports.append(spawn(name, seed, scale, "setup", workers))
    setups = [report["setup_s"] for report in setup_reports]

    failures: List[str] = []
    first = runs[0]
    for index, run in enumerate(runs[1:], start=2):
        difference = _first_difference(_exact(first), _exact(run))
        if difference:
            failures.append(f"repetition {index} differs from 1 at {difference}")
    run_s = [run["run_s"] for run in runs]
    median_run_s = statistics.median(run_s)
    median_wall_s = statistics.median(run["run_wall_s"] for run in runs)
    end_to_end: Dict[str, Any] = {
        "setup_s": statistics.median(setups),
        "run_s": median_run_s,
        "queries_per_s": first["queries"] / median_run_s,
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
    }
    end_to_end.update(first["sim"])
    counts = dict(first["counts"])
    queries = first["queries"]
    counts.update(
        {
            "sim.events_per_query": counts["sim.events"] / queries,
            "sim.events_per_s": counts["sim.events"] / median_run_s,
            "net.msgs_per_query": counts["net.msgs"] / queries,
            "host.run_wall_s": median_wall_s,
            "host.run_s_min": min(run_s),
            "host.run_s_iqr": _relative_iqr(run_s),
            "host.calibration_ops_per_s": statistics.median(
                run["calibration_ops_per_s"] for run in runs
            ),
        }
    )
    if counts["sim.sharded.worker_cpu_s"] != NA:
        counts["sim.sharded.worker_cpu_s"] = statistics.median(
            run["counts"]["sim.sharded.worker_cpu_s"] for run in runs
        )

    for metric in registry.END_TO_END:
        value = end_to_end[metric.name]
        declared_na = metric.name in workload.not_applicable
        if value == NA:
            if not declared_na:
                failures.append(f"{metric.name} is n/a but {name} declares it")
        elif declared_na:
            failures.append(f"{metric.name} = {value!r} but {name} declares it n/a")
        elif not isinstance(value, (int, float)) or not math.isfinite(value):
            failures.append(f"{metric.name} is not a finite number: {value!r}")
    if first["overdue_open"]:
        failures.append(
            f"{first['overdue_open']} queries open at the horizon were issued "
            f"before the {int(GRACE_MS / 1000)} s in-flight grace began"
        )
    if first["local_hits"] and workload.kind != "world":
        failures.append(
            "hit_local records in a summary-only run: lookup percentiles include them"
        )
    if end_to_end["audit_violations"] not in (NA, 0):
        failures.append(
            f"auditor reported {first.get('violations')} (audit_violations must be 0)"
        )
    return {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "reps": len(runs),
        "setup_samples": len(setups),
        "lookup_samples": first["lookup_samples"],
        "queries": queries,
        "issued": first["issued"],
        "overdue_open": first["overdue_open"],
        "end_to_end": end_to_end,
        "run_s_all": run_s,
        "run_wall_s_all": [run["run_wall_s"] for run in runs],
        "setup_s_all": setups,
        "setup_wall_s_all": [report["setup_wall_s"] for report in setup_reports],
        "counts": counts,
        "failures": failures,
        "exact": _exact(first),
    }


def trace(measured: Dict) -> Dict:
    """The traced run of a measured workload: per-layer self time.

    ``sharded`` is traced at ``workers=1`` (forked children are invisible
    to the profiler); the same configuration also runs once untraced at
    ``workers=1``, which gives ``sim.sharded.speedup_vs_1`` and must
    reproduce the 2-worker simulated counts exactly.
    """
    name, seed, scale = measured["workload"], measured["seed"], measured["scale"]
    failures: List[str] = []
    counts: Dict[str, Any] = {}
    untraced_wall_s = measured["counts"]["host.run_wall_s"]
    if WORKLOADS[name].kind == "sharded":
        single = spawn(name, seed, scale, "run", 1)
        difference = _first_difference(measured["exact"], _exact(single))
        if difference:
            failures.append(f"workers=1 differs from workers=2 at {difference}")
        counts["sim.sharded.speedup_vs_1"] = single["run_wall_s"] / untraced_wall_s
        untraced_wall_s = single["run_wall_s"]
    traced = spawn(name, seed, scale, "trace", 1)
    difference = _first_difference(measured["exact"], _exact(traced))
    if difference:
        failures.append(f"traced run differs from untraced at {difference}")
    total = sum(traced["self_s"].values())
    for layer in LAYERS:
        counts[f"{layer}.self_s"] = traced["self_s"][layer]
        counts[f"{layer}.share"] = traced["self_s"][layer] / total
    counts["host.trace_overhead"] = traced["run_wall_s"] / untraced_wall_s
    if counts["other.share"] > registry.MAX_OTHER_SHARE:
        failures.append(
            f"other.share = {counts['other.share']:.3f} exceeds "
            f"{registry.MAX_OTHER_SHARE}: a module has no layer rule"
        )
    return {
        "traced_run_s": traced["run_wall_s"],
        "counts": counts,
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def _format(value: Any) -> str:
    if value == NA or value is None:
        return NA
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def _bound_text(metric: registry.EndToEnd, workload: str) -> str:
    bound = metric.bound_for(workload)
    return f"{bound * 100:g} %" if metric.relative else f"{bound:g} abs"


def print_report(measured: Dict, traced: Dict) -> None:
    name = measured["workload"]
    print(
        f"\n== {name}  seed={measured['seed']}  R={measured['reps']} "
        f"(setup samples: {measured['setup_samples']}) =="
    )
    print(f"   {WORKLOADS[name].why}")
    if WORKLOADS[name].note:
        print(f"   {WORKLOADS[name].note}")
    print("  end-to-end (host metrics: median over R fresh processes)")
    for metric in registry.END_TO_END:
        value = measured["end_to_end"][metric.name]
        note = ""
        if metric.name.startswith("lookup_ms_p"):
            note = f"  n={measured['lookup_samples']}"
        elif metric.name == "run_s":
            note = f"  iqr={measured['counts']['host.run_s_iqr'] * 100:.1f} %"
        print(
            f"    {metric.name:<18}{_format(value):>14} {metric.unit:<6}"
            f"{metric.clock:<5} {metric.better:<7}"
            f"bound {_bound_text(metric, name):<10}{note}"
        )
    print("  per-layer counts (tracing off; exact unless host-clock)")
    counts = {**measured["counts"], **traced["counts"]}
    for count in registry.COUNTS:
        print(f"    {count.name:<34}{_format(counts[count.name]):>14} {count.unit}")
    print(
        f"  per-layer self time (traced run, {traced['traced_run_s']:.2f} s under "
        f"cProfile; shares are shares of traced time)"
    )
    for layer in LAYERS:
        print(
            f"    {layer + '.self_s':<34}{counts[layer + '.self_s']:>14.4f} s    "
            f"{layer}.share {counts[layer + '.share']:.4f} ratio"
        )


def _public(measured: Dict, traced: Optional[Dict]) -> Dict:
    out = {k: v for k, v in measured.items() if k != "exact"}
    out["failures"] = list(measured["failures"])
    if traced is not None:
        out["counts"] = {**measured["counts"], **traced["counts"]}
        out["traced_run_s"] = traced["traced_run_s"]
        out["failures"] += traced["failures"]
    return out


# ---------------------------------------------------------------------------
# The four modes
# ---------------------------------------------------------------------------


def run_full(names: List[str], seed: int, reps: int, out: Optional[Path]) -> List[str]:
    results = []
    for name in names:
        measured = measure(name, seed, 1.0, reps=reps)
        traced = trace(measured)
        print_report(measured, traced)
        results.append(_public(measured, traced))
    failures = [f"{r['workload']}: {f}" for r in results for f in r["failures"]]
    if out is not None:
        document = _document(seed, reps)
        document["workloads"] = {r["workload"]: r for r in results}
        _write(out, document)
    return failures


def _document(seed: int, reps: int) -> Dict:
    """The head of a results file.  This benchmark claims no gain."""
    return {
        "claim": None,
        "seed": seed,
        "reps": reps,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
    }


def _write(out: Path, document: Dict) -> None:
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"\nwrote {out}")


def run_smoke(names: List[str], seed: int) -> List[str]:
    """Every workload at a tenth of its size: are all metrics emitted?"""
    failures = []
    for name in names:
        measured = measure(name, seed, SMOKE_SCALE, reps=1, setup_samples=1)
        traced = trace(measured)
        counts = {**measured["counts"], **traced["counts"]}
        for metric in registry.END_TO_END:
            if metric.name not in measured["end_to_end"]:
                failures.append(f"{name}: {metric.name} [{metric.unit}] not emitted")
        for count in registry.PER_LAYER:
            if count.name not in counts:
                failures.append(f"{name}: {count.name} [{count.unit}] not emitted")
        print(
            f"smoke {name:<9} run_s={measured['end_to_end']['run_s']:.2f} s  "
            f"{len(measured['end_to_end'])} end-to-end + {len(counts)} per-layer "
            f"metrics emitted"
        )
    return failures


def run_repeat_check(
    names: List[str], seed: int, reps: int, out: Optional[Path]
) -> List[str]:
    """Two full sets back to back; B must sit within every bound of A.

    Set B runs the workloads in the opposite order, so a slow machine
    window does not land on the same workload twice.
    """
    sets = []
    for label, order in (("A", names), ("B", list(reversed(names)))):
        measured = {}
        for name in order:
            measured[name] = measure(name, seed, 1.0, reps=reps)
            print(
                f"set {label} {name:<9} "
                f"run_s={measured[name]['end_to_end']['run_s']:.3f} "
                f"iqr={measured[name]['counts']['host.run_s_iqr'] * 100:.1f} %"
            )
        sets.append(measured)
    failures = []
    print(
        f"\n{'workload':<10}{'metric':<18}{'set A':>14}{'set B':>14}"
        f"{'moved':>10}  bound"
    )
    for name in names:
        a, b = sets[0][name], sets[1][name]
        failures += [f"{name} (set A): {f}" for f in a["failures"]]
        failures += [f"{name} (set B): {f}" for f in b["failures"]]
        for metric in registry.END_TO_END:
            before, after = a["end_to_end"][metric.name], b["end_to_end"][metric.name]
            if before == NA:
                continue
            moved = after - before
            if metric.relative:
                shown = f"{moved / before * 100:+.2f} %"
            else:
                shown = f"{moved:+.4g}"
            verdict = ""
            if metric.regressed(name, before, after):
                verdict = "  REGRESSED"
                failures.append(
                    f"{name}: {metric.name} moved {shown} from set A to set B, "
                    f"bound {_bound_text(metric, name)}"
                )
            print(
                f"{name:<10}{metric.name:<18}{_format(before):>14}"
                f"{_format(after):>14}{shown:>10}  "
                f"{_bound_text(metric, name)}{verdict}"
            )
    if out is not None:
        document = _document(seed, reps)
        document["sets"] = {
            label: {name: _public(measured[name], None) for name in names}
            for label, measured in zip("AB", sets)
        }
        _write(out, document)
    return failures


def run_contract(name: str, seed: int, seconds: float, traced: bool) -> int:
    """What ``BENCHMARK.json``'s driver calls: one workload, one JSON line."""
    seed = driver_seed(name, seed)
    if traced:
        measured = measure(name, seed, 1.0, reps=1, setup_samples=1)
        ledger = trace(measured)
        counts = {**measured["counts"], **ledger["counts"]}
        failures = measured["failures"] + ledger["failures"]
        values = {c.name: counts.get(c.name, NA) for c in registry.PER_LAYER}
        for extra in registry.CONTRACT_EXTRA_PER_LAYER:
            values[extra] = measured["end_to_end"][extra]
    else:
        # The 2-worker wall time of ``sharded`` moved by up to +47 % between
        # two measurements minutes apart (the host's IPC latency has
        # regimes of its own, which the speed samples do not see), more
        # than any bound the driver allows.  For the driver the same
        # shards, windows and bus run in one process, corrected like the
        # other workloads; the 2-worker run is reported with ``--trace 1``.
        measured = measure(name, seed, 1.0, seconds=seconds, workers=1)
        failures = measured["failures"]
        end_to_end = dict(measured["end_to_end"])
        end_to_end[registry.SERVED_RATIO] = 1.0 - end_to_end["failed_ratio"]
        values = {key: end_to_end[key] for key in registry.CONTRACT_END_TO_END}
    for failure in failures:
        print(f"FAILED {name}: {failure}")
    metrics = {
        # The driver wants a number everywhere: a plane that is off did
        # no work, so its counts read 0.
        key: {"value": 0 if value == NA else value, "unit": registry.UNITS[key]}
        for key, value in values.items()
    }
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": measured["issued"],
                "failed": measured["overdue_open"],
                "metrics": metrics,
            }
        )
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
    parser.add_argument(
        "--reps",
        type=int,
        default=DEFAULT_REPS,
        help=f"fresh-process repetitions (default {DEFAULT_REPS}, min {MIN_REPS})",
    )
    parser.add_argument("--out", type=Path, help="where to write the results JSON")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="a tenth of every workload: are all metrics emitted?",
    )
    parser.add_argument(
        "--repeat-check",
        action="store_true",
        help="two sets back to back must agree within the bounds",
    )
    parser.add_argument(
        "--seconds", type=float, help="(driver) keep starting runs for this long"
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        help="(driver) 0: end-to-end metrics, 1: per-layer metrics",
    )
    args = parser.parse_args(argv)
    names = args.workload or list(WORKLOADS)
    if not (ROOT / "src" / "repro").is_dir():
        missing = ROOT / "src" / "repro"
        print(f"nothing to measure: {missing} is missing", file=sys.stderr)
        return 2
    try:
        if args.seconds is not None or args.trace is not None:
            if len(names) != 1:
                parser.error("the driver form takes exactly one --workload")
            return run_contract(
                names[0], args.seed, args.seconds or 0.0, bool(args.trace)
            )
        if args.reps < MIN_REPS:
            parser.error(f"--reps must be at least {MIN_REPS}")
        if args.smoke:
            failures = run_smoke(names, args.seed)
        elif args.repeat_check:
            out = args.out or RESULTS_DIR / f"repeat_check_seed{args.seed}.json"
            failures = run_repeat_check(names, args.seed, args.reps, out)
        else:
            out = args.out
            if out is None and len(names) == len(WORKLOADS):
                out = RESULTS_DIR / f"seed{args.seed}.json"
            failures = run_full(names, args.seed, args.reps, out)
    except BenchmarkError as error:
        print(f"benchmark could not run: {error}", file=sys.stderr)
        return 2
    if failures:
        print(f"\n{len(failures)} correctness check(s) FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nall correctness checks passed; claim: null")
    return 0
