"""Alternating A/B pairs of one end-to-end workload: parent against change.

Usage::

    python scripts/ab_pairs.py PARENT_DIR CHANGE_DIR --workload squirrel --seed 1 [--pairs 10]

``PARENT_DIR`` and ``CHANGE_DIR`` are two checkouts of this repository.
Each pair runs ``python -m benchmarks.e2e.worker --phase run`` once in
each checkout, every run in a fresh interpreter, with the parent first in
even pairs and the change first in odd ones.  This is the measurement the
benchmark's own ``run_s`` makes in its one-line contract form, which also
runs ``sharded`` in one process (``--workers 1``).  The script prints:

- every run's ``run_s``;
- each side's median and quartiles, and the change's wins (a tie counts
  for neither side);
- the verdict of the claim rule: the change wins at least nine tenths of
  the pairs, and its median beats the parent's by more than the parent's
  interquartile range.  Below ten pairs no claim can be made, and the
  verdict says "too few pairs to claim";
- the first difference between the two sides in what they simulate: the
  ``sim`` block, ``queries``, ``issued``, ``lookup_samples`` or any exact
  count.  ``sim.events``, ``sim.peak_pending`` and the host-clock counts
  may differ and are not compared.  When the two sides differ, every
  ``sim`` metric follows, parent and change side by side, so a change of
  behaviour can be read from one run.

It only reads ``benchmarks/e2e`` in the two checkouts and writes nothing.
The exit status is 1 when the two sides simulate differently, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e.registry import HOST_COUNTS  # noqa: E402

#: Top-level worker outputs that are functions of (workload, seed) alone.
EXACT_KEYS = (
    "sim",
    "queries",
    "issued",
    "lookup_samples",
    "local_hits",
    "overdue_open",
    "violations",
)

#: Exact counts a change to the event loop may move on purpose.
MAY_DIFFER = frozenset({"sim.events", "sim.peak_pending"}) | HOST_COUNTS

#: The share of pairs the change must win to claim a gain.
WIN_SHARE = 0.9

#: The fewest pairs a claim may rest on.
MIN_PAIRS = 10


def run_worker(checkout: Path, workload: str, seed: int) -> Dict[str, Any]:
    """One ``--phase run`` measurement in *checkout*, in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(checkout / "src"), str(checkout)])
    command = [
        sys.executable,
        "-m",
        "benchmarks.e2e.worker",
        "--workload", workload,
        "--seed", str(seed),
        "--phase", "run",
        "--workers", "1",
    ]
    done = subprocess.run(
        command, cwd=checkout, env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def first_difference(parent: Dict[str, Any], change: Dict[str, Any]) -> Optional[str]:
    """The first simulated result that differs between two runs, or None."""
    for key in EXACT_KEYS:
        old, new = parent.get(key), change.get(key)
        if key == "sim" and isinstance(old, dict) and isinstance(new, dict):
            for name in sorted(set(old) | set(new)):
                if old.get(name) != new.get(name):
                    return f"sim.{name}: parent {old.get(name)!r}, change {new.get(name)!r}"
        elif old != new:
            return f"{key}: parent {old!r}, change {new!r}"
    old_counts, new_counts = parent.get("counts", {}), change.get("counts", {})
    for name in sorted(set(old_counts) | set(new_counts)):
        if name in MAY_DIFFER:
            continue
        if old_counts.get(name) != new_counts.get(name):
            return (
                f"counts.{name}: parent {old_counts.get(name)!r}, "
                f"change {new_counts.get(name)!r}"
            )
    return None


def verdict(parent_s: Sequence[float], change_s: Sequence[float]) -> Tuple[int, bool]:
    """``(wins, claimable)`` for paired ``run_s`` samples (lower is better)."""
    wins = sum(1 for old, new in zip(parent_s, change_s) if new < old)
    q1, parent_median, q3 = quartiles(parent_s)
    gap = parent_median - statistics.median(change_s)
    claimable = wins >= WIN_SHARE * len(parent_s) and gap > q3 - q1
    return wins, claimable


def verdict_line(parent_s: Sequence[float], change_s: Sequence[float]) -> str:
    """The printed summary of :func:`verdict`."""
    wins, claimable = verdict(parent_s, change_s)
    parent_median = statistics.median(parent_s)
    change_median = statistics.median(change_s)
    if len(parent_s) < MIN_PAIRS:
        label = "too few pairs to claim"
    else:
        label = "gain" if claimable else "no claimable gain"
    return (
        f"change wins {wins}/{len(parent_s)} pairs; median "
        f"{(change_median - parent_median) / parent_median:+.1%}; verdict: {label}"
    )


def sim_table(parent: Dict[str, Any], change: Dict[str, Any]) -> List[str]:
    """Every ``sim`` metric of two runs, parent and change side by side."""
    old, new = parent.get("sim", {}), change.get("sim", {})
    return [
        f"sim.{name}: parent {old.get(name)!r}  change {new.get(name)!r}"
        for name in sorted(set(old) | set(new))
    ]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ab_pairs", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    times: Dict[str, List[float]] = {"parent": [], "change": []}
    difference = None
    first: Dict[str, Dict[str, Any]] = {}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        out = {side: run_worker(sides[side], args.workload, args.seed) for side in order}
        for side in order:
            times[side].append(out[side]["run_s"])
        print(
            f"pair {pair + 1:2d} ({order[0]} first): parent {out['parent']['run_s']:.3f} s"
            f"  change {out['change']['run_s']:.3f} s",
            flush=True,
        )
        first = first or out
        if difference is None:
            difference = first_difference(out["parent"], out["change"])
    for side in ("parent", "change"):
        q1, median, q3 = quartiles(times[side])
        print(f"{side:6s}: median {median:.3f} s  q1 {q1:.3f}  q3 {q3:.3f}")
    print(verdict_line(times["parent"], times["change"]))
    for name in ("sim.events", "sim.peak_pending"):
        old, new = (first[side]["counts"].get(name) for side in ("parent", "change"))
        print(f"{name}: parent {old}  change {new}")
    if difference is not None:
        print(f"simulations differ: {difference}")
        print("\n".join(sim_table(first["parent"], first["change"])))
        return 1
    print("simulations identical (sim.events / sim.peak_pending / host counts not compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
