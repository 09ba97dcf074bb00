#!/usr/bin/env python
"""Run the paper-scale evaluation (Table 1 parameters, 24 simulated hours).

Produces one JSON file per (protocol, population) pair under ``results/``:
the Table 2 row metrics, the Figure 3 hit-ratio curve, the Figure 4 / 5
latency and distance histograms at the paper's bucket edges, and the
standard ``extra`` block every run door writes (message and drop counts,
online peers).

Usage::

    python scripts/run_full_scale.py [--populations 3000,2000,4000,5000]
                                     [--seed 1] [--out results]

Expect tens of minutes of wall clock for the full sweep; populations are
processed in the given order so the P=3000 pair (which Figures 3-5 use)
lands first.
"""

import argparse
import json
import pathlib
import sys
import time

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_world, summarize
from repro.metrics.distribution import (
    LOOKUP_LATENCY_EDGES,
    TRANSFER_DISTANCE_EDGES,
    Distribution,
)


def run_one(protocol: str, population: int, seed: int, out_dir: pathlib.Path) -> dict:
    config = ExperimentConfig.paper(population=population)
    started = time.time()
    world = build_world(protocol, config, seed=seed)
    world.run()
    metrics = world.system.metrics
    result = summarize(world, protocol, seed)
    payload = result.to_dict()
    payload["wall_seconds"] = round(time.time() - started, 1)
    payload["fig4_lookup_histogram"] = Distribution(
        metrics.lookup_latencies()
    ).histogram(LOOKUP_LATENCY_EDGES)
    payload["fig5_transfer_histogram"] = Distribution(
        metrics.transfer_distances()
    ).histogram(TRANSFER_DISTANCE_EDGES)
    out_path = out_dir / f"full_{protocol}_{population}.json"
    out_path.write_text(json.dumps(payload, indent=2))
    print(
        f"[{time.strftime('%H:%M:%S')}] {protocol} P={population}: "
        f"hit={result.hit_ratio:.3f} lookup={result.mean_lookup_latency_ms:.0f}ms "
        f"transfer={result.mean_transfer_ms:.0f}ms "
        f"({payload['wall_seconds']}s wall) -> {out_path}",
        flush=True,
    )
    return payload


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--populations", default="3000,2000,4000,5000")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default="results")
    parser.add_argument("--protocols", default="flower,squirrel")
    args = parser.parse_args()
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    populations = [int(p) for p in args.populations.split(",")]
    protocols = args.protocols.split(",")
    for population in populations:
        for protocol in protocols:
            run_one(protocol, population, args.seed, out_dir)
    print("full-scale sweep complete", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
