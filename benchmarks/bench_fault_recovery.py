"""Fault recovery: partition-and-heal, bursty loss, and cold-vs-warm failover.

The paper's robustness claim (sections 1 and 6.3) is argued through churn
alone; this bench subjects both systems to the harder faults the
fault-injection subsystem (:mod:`repro.net.faults`) provides and reports
the recovery metrics the claim implies:

- **partition and heal** -- cut locality 0 off the backbone for two
  simulated hours.  Flower-CDN's per-locality directories keep serving the
  cut locality from inside, so its availability and hit ratio degrade less
  than Squirrel's single global ring, and both numbers return to baseline
  after the heal (time-to-recover is finite);
- **bursty loss** -- a Gilbert-Elliott channel at ~10% stationary loss.
  With the retry/backoff RPC layer enabled (the default) Flower's hit
  ratio is strictly better than the seed's single-shot behaviour
  (``rpc_retries=0``) at the same loss rate and seed, at a cost counted
  as retransmissions per RPC kind;
- **cold vs warm failover** -- the same partition plus a total directory
  wipe inside the cut, run once with replication off (the paper's cold
  replacement of section 5.2) and once with ``directory_replication_k=2``
  (the warm failover of section 5.3).  Warm must be *strictly* better on
  both replica-aware metrics: time-to-full-index and cold-window misses.

The cold/warm A/B also has a CLI front door, the one writer of the
committed ``results/fault_recovery_warm_failover.{json,txt}`` pair (the
table goes beside the JSON)::

    PYTHONPATH=src python benchmarks/bench_fault_recovery.py \
        --output results/fault_recovery_warm_failover.json

which exits non-zero when warm fails to strictly beat cold (``--quick``
for CI smoke runs).

Always reduced scale: each test runs two full systems end-to-end (see the
ablations note in bench_ablations.py).
"""

import argparse
import json
import pathlib
import sys
from collections import Counter
from typing import Dict, List, Optional

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    build_world,
    run_directory_recovery_experiment,
    run_recovery_experiment,
    summarize,
)
from repro.metrics.report import render_table
from repro.net.faults import BurstyLossSpec, MassFailureSpec, PartitionSpec
from repro.sim.clock import hours, minutes

POPULATION = 150
SEED = 17

PARTITION_START = hours(3.0)
PARTITION_HEAL = hours(5.0)


def _partition_config() -> ExperimentConfig:
    return ExperimentConfig.scaled(
        population=POPULATION,
        duration_hours=9.0,
        num_websites=8,
        num_active_websites=2,
        num_localities=3,
        objects_per_website=60,
        fault_schedule=(
            PartitionSpec(
                locality=0, start_ms=PARTITION_START, heal_ms=PARTITION_HEAL
            ),
        ),
    )


def test_partition_and_heal_recovery(benchmark):
    from benchmarks.conftest import emit_report

    config = _partition_config()

    def run():
        return {
            protocol: run_recovery_experiment(
                protocol,
                config,
                fault_start_ms=PARTITION_START,
                fault_end_ms=PARTITION_HEAL,
                seed=SEED,
                window_ms=minutes(30),
            )
            for protocol in ("flower", "squirrel")
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for protocol, (result, recovery) in results.items():
        ttr = recovery.time_to_recover_ms()
        rows.append(
            [
                protocol,
                f"{recovery.pre.hit_ratio:.3f}",
                f"{recovery.during.hit_ratio:.3f}",
                f"{recovery.post.hit_ratio:.3f}",
                f"{recovery.during.availability:.1%}",
                f"{recovery.availability:.1%}",
                "never" if ttr is None else f"{ttr / 60_000.0:.0f} min",
                result.extra["drop_counts"].get("partition", 0),
            ]
        )
    emit_report(
        "fault_recovery_partition",
        render_table(
            [
                "protocol",
                "pre hit",
                "fault hit",
                "post hit",
                "fault avail",
                "avail",
                "TTR",
                "partition drops",
            ],
            rows,
            title=(
                f"partition of locality 0 "
                f"({PARTITION_START / 3_600_000.0:.0f}h-"
                f"{PARTITION_HEAL / 3_600_000.0:.0f}h), "
                f"P={config.population}, seed={SEED}"
            ),
        ),
    )

    __, flower = results["flower"]
    __, squirrel = results["squirrel"]
    # The partition actually bit: both systems dropped cross-cut traffic.
    for result, __rec in results.values():
        assert result.extra["drop_counts"].get("partition", 0) > 0
    # Flower's in-locality directories ride the cut better than the
    # single global ring on both fault-phase metrics.
    assert flower.during.availability > squirrel.during.availability
    assert flower.during.hit_ratio > squirrel.during.hit_ratio
    # And Flower comes back: the windowed hit ratio returns to within
    # epsilon of the pre-fault baseline after the heal.
    assert flower.time_to_recover_ms() is not None
    assert flower.post.availability >= 0.99


#: Gilbert-Elliott channel at 10% stationary loss (0.05 / (0.05 + 0.45)),
#: mean burst length 1 / 0.45 ~ 2.2 deliveries.
BURSTY_10PCT = BurstyLossSpec(p_good_to_bad=0.05, p_bad_to_good=0.45)


def _run_counting_retransmissions(config: ExperimentConfig, seed: int):
    """One Flower run, plus its RPC retransmissions counted by kind."""
    world = build_world("flower", config, seed)
    retransmitted: Counter = Counter()
    world.sim.trace.subscribe(
        "net.rpc_retry", lambda event: retransmitted.update((event.payload["rpc_kind"],))
    )
    world.run()
    return summarize(world, "flower", seed), dict(retransmitted)


def test_retries_beat_single_shot_under_bursty_loss(benchmark):
    from benchmarks.conftest import emit_report

    assert abs(BURSTY_10PCT.stationary_loss_rate - 0.10) < 1e-9
    config = ExperimentConfig.scaled(
        population=POPULATION,
        duration_hours=8.0,
        num_websites=6,
        num_active_websites=2,
        num_localities=3,
        objects_per_website=40,
        fault_schedule=(BURSTY_10PCT,),
    )

    def run():
        return {
            "flower (retries=2)": _run_counting_retransmissions(config, 4),
            "flower (single-shot)": _run_counting_retransmissions(
                config.replace(rpc_retries=0), 4
            ),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        [
            name,
            f"{result.hit_ratio:.3f}",
            f"{result.mean_lookup_latency_ms:.0f} ms",
            result.extra["drop_counts"].get("loss", 0),
            result.messages_sent,
            sum(retransmitted.values()),
        ]
        for name, (result, retransmitted) in results.items()
    ]
    retries, retransmitted = results["flower (retries=2)"]
    single, single_retransmitted = results["flower (single-shot)"]
    emit_report(
        "fault_recovery_bursty_loss",
        render_table(
            ["variant", "hit ratio", "lookup", "lost messages", "sent", "retransmitted"],
            rows,
            title=(
                f"Gilbert-Elliott loss at "
                f"{BURSTY_10PCT.stationary_loss_rate:.0%} stationary rate "
                f"(P={config.population}, {config.duration_hours:.0f}h)"
            ),
        )
        + "\nretransmissions by kind (retries=2): "
        + ", ".join(f"{kind} {count}" for kind, count in sorted(retransmitted.items())),
    )

    # The acceptance bar: retry/backoff strictly beats the seed's
    # single-shot RPC behaviour at the same loss rate and seed.
    assert retries.hit_ratio > single.hit_ratio
    # The win is not free: it costs retransmissions of the directory- and
    # server-facing RPCs, which single-shot never sends.  Total traffic is
    # no measure of that cost: single-shot condemns a directory on one lost
    # message, and the D-ring scans and replacement races that follow send
    # about as much as the retries do (53 425 messages with retries, 54 333
    # without, at this config and seed).
    assert single_retransmitted == {}
    assert retransmitted.get("flower.query", 0) > 0
    assert retransmitted.get("server.fetch", 0) > 0


# ---------------------------------------------------------------------------
# Cold vs warm directory failover (section 5.3 A/B)
# ---------------------------------------------------------------------------

WARM_K = 2


def _wipe_config(replication_k: int, population: int = POPULATION) -> ExperimentConfig:
    """Partition locality 0 (3h-5h) and wipe its directories mid-cut."""
    return ExperimentConfig.scaled(
        population=population,
        duration_hours=9.0,
        num_websites=8,
        num_active_websites=2,
        num_localities=3,
        objects_per_website=60,
        directory_replication_k=replication_k,
        fault_schedule=(
            PartitionSpec(
                locality=0, start_ms=PARTITION_START, heal_ms=PARTITION_HEAL
            ),
            MassFailureSpec(
                at_ms=PARTITION_START + 0.5 * (PARTITION_HEAL - PARTITION_START),
                fraction=1.0,
                locality=0,
                directories_only=True,
            ),
        ),
    )


def run_cold_warm_ab(population: int = POPULATION, seed: int = SEED) -> Dict:
    """The cold (k=0) vs warm (k=WARM_K) directory-recovery comparison."""
    out: Dict[str, Dict] = {}
    for label, k in (("cold", 0), ("warm", WARM_K)):
        result, recovery, directory = run_directory_recovery_experiment(
            "flower",
            _wipe_config(k, population=population),
            fault_start_ms=PARTITION_START,
            fault_end_ms=PARTITION_HEAL,
            seed=seed,
            window_ms=minutes(30),
            localities=[0],
        )
        out[label] = {
            "replication_k": k,
            "hit_ratio": result.hit_ratio,
            "availability": recovery.availability,
            "fault_hit_ratio": recovery.during.hit_ratio,
            "time_to_full_index_ms": directory["time_to_full_index_ms"],
            "cold_window_misses": directory["cold_window_misses"],
            "replicas_adopted": directory["replicas_adopted"],
            "takeover_staleness_ms": directory["takeover_staleness_ms"],
            "replication": result.extra["replication"],
        }
    return out


def _ab_table(ab: Dict, population: int, seed: int) -> str:
    rows = []
    for label in ("cold", "warm"):
        entry = ab[label]
        ttfi = entry["time_to_full_index_ms"]
        rows.append(
            [
                f"{label} (k={entry['replication_k']})",
                "never" if ttfi is None else f"{ttfi / 60_000.0:.0f} min",
                entry["cold_window_misses"],
                entry["replicas_adopted"],
                f"{entry['takeover_staleness_ms']['mean'] / 60_000.0:.1f} min",
                f"{entry['fault_hit_ratio']:.3f}",
                f"{entry['availability']:.1%}",
            ]
        )
    return render_table(
        [
            "mode",
            "time to full index",
            "cold misses",
            "replicas adopted",
            "staleness (mean)",
            "fault hit",
            "avail",
        ],
        rows,
        title=(
            "cold vs warm directory failover "
            f"(partition 3h-5h + wipe, P={population}, seed={seed})"
        ),
    )


def _ab_strictly_better(ab: Dict) -> bool:
    cold, warm = ab["cold"], ab["warm"]
    cold_ttfi = cold["time_to_full_index_ms"]
    warm_ttfi = warm["time_to_full_index_ms"]
    if warm_ttfi is None:  # warm never recovered: hard fail
        return False
    if cold_ttfi is not None and warm_ttfi >= cold_ttfi:
        return False
    return warm["cold_window_misses"] < cold["cold_window_misses"]


def test_warm_failover_beats_cold_restart(benchmark):
    ab = benchmark.pedantic(run_cold_warm_ab, rounds=1, iterations=1)
    # Printed, not persisted: main() writes the committed A/B pair.
    print(_ab_table(ab, POPULATION, SEED))
    # The section 5.3 acceptance bar: with k=2 the cold window is
    # *strictly* shorter and cheaper than the paper's cold replacement.
    assert _ab_strictly_better(ab)
    # The warm run actually used replicas (the win is attributable).
    assert ab["warm"]["replicas_adopted"] > 0
    assert ab["cold"]["replicas_adopted"] == 0
    assert ab["cold"]["replication"]["syncs"] == 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI front door: run the cold/warm A/B and write the comparison."""
    parser = argparse.ArgumentParser(
        description="cold vs warm directory failover A/B"
    )
    parser.add_argument(
        "--quick", action="store_true", help="smaller population (CI smoke)"
    )
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument(
        "--output", metavar="PATH", help="write the A/B comparison as JSON"
    )
    args = parser.parse_args(argv)
    population = 100 if args.quick else POPULATION
    ab = run_cold_warm_ab(population=population, seed=args.seed)
    table = _ab_table(ab, population, args.seed)
    print(table)
    ok = _ab_strictly_better(ab)
    print(
        "warm strictly beats cold: "
        + ("yes" if ok else "NO -- regression in warm failover")
    )
    if args.output:
        payload = {
            "population": population,
            "seed": args.seed,
            "warm_strictly_better": ok,
            "cold": ab["cold"],
            "warm": ab["warm"],
        }
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2)
        pathlib.Path(args.output).with_suffix(".txt").write_text(table + "\n")
        print(f"wrote {args.output} and its table")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
