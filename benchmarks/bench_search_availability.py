"""Search availability under directory wipe: the cold-vs-warm A/B.

PR 4/5 made directory *content service* survive a wipe through replicated
(member-view, index) state; this bench shows the same replication channel
now carries the keyword-search plane (section 5.4 of docs/PROTOCOLS.md).
One scenario, two arms:

- **cold (k=0)** -- no replicated directory-index.  A partition cuts
  locality 0 off the backbone (3h-5h) and every directory inside the cut
  is wiped at 4h.  Keyword searches issued by locality-0 members have
  nowhere to go: the wipe window shows a sustained outage ("none"
  completions).
- **warm (k=2)** -- the directory-index replicates to the member heir
  plus two D-ring successors.  Through the same wipe, searches fail over to
  replica holders (staleness-stamped), then to promoted takeover /
  provisional directories; availability in the wipe window stays >= 99%
  and no replica-served answer exceeds the declared staleness bound of
  :func:`repro.cdn.flower.search_client.staleness_bound_ms`.

CLI front door (:mod:`benchmarks.ab`; exits non-zero when any gate fails),
the one writer of the committed ``results/search_availability_warm.{json,txt}``
pair (the table goes beside the JSON)::

    PYTHONPATH=src python -m benchmarks.bench_search_availability \
        --output results/search_availability_warm.json

Always reduced scale: each arm runs a full system end-to-end (see the
ablations note in bench_ablations.py).
"""

import sys
from typing import Dict, List, Optional

from benchmarks import ab
from repro.cdn.flower.search import SearchAvailabilityTracker
from repro.cdn.flower.search_client import staleness_bound_ms
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_world
from repro.metrics.report import render_table
from repro.net.faults import MassFailureSpec, PartitionSpec
from repro.sim.clock import hours, minutes

POPULATION = 150
SEED = 17
WARM_K = 2

PARTITION_START = hours(3.0)
PARTITION_HEAL = hours(5.0)
WIPE_AT = PARTITION_START + 0.5 * (PARTITION_HEAL - PARTITION_START)
#: The measured outage window: wipe -> wipe + 30 min.
WINDOW_MS = minutes(30.0)

#: The warm acceptance bar inside the wipe window.
WARM_AVAILABILITY_FLOOR = 0.99
#: The cold arm must show a real outage (otherwise the A/B proves nothing).
COLD_AVAILABILITY_CEILING = 0.5


def _wipe_config(replication_k: int) -> ExperimentConfig:
    """Partition locality 0 (3h-5h), wipe its directories mid-cut, and
    probe keyword search inside the cut locality throughout.

    The 10-minute keepalive cadence (vs the paper's 1h default) keeps the
    replica-sync period meaningfully shorter than the mean peer uptime --
    at a 1h cadence most directories die before their first sync and
    there is no warm state to measure.
    """
    return ExperimentConfig.scaled(
        population=POPULATION,
        duration_hours=9.0,
        num_websites=8,
        num_active_websites=2,
        num_localities=3,
        objects_per_website=60,
        gossip_period_min=10.0,
        directory_replication_k=replication_k,
        search_keywords=24,
        search_probe_period_s=45.0,
        fault_schedule=(
            PartitionSpec(
                locality=0, start_ms=PARTITION_START, heal_ms=PARTITION_HEAL
            ),
            MassFailureSpec(
                at_ms=WIPE_AT,
                fraction=1.0,
                locality=0,
                directories_only=True,
            ),
        ),
    )


def _run_arm(replication_k: int, seed: int) -> Dict:
    world = build_world("flower", _wipe_config(replication_k), seed=seed)
    # Focus the probe workload on the cut locality: that is where the
    # availability question is decided.
    world.search_probes.localities = [0]
    tracker = SearchAvailabilityTracker(world.sim)
    world.run()
    return {
        "replication_k": replication_k,
        "staleness_bound_ms": staleness_bound_ms(world.system.gossip_period_ms),
        "window": tracker.window_stats(WIPE_AT, WIPE_AT + WINDOW_MS),
        "full_run": tracker.window_stats(0.0, world.sim.now),
        "probes_issued": world.search_probes.issued,
        "replication": world.system.stats().replication.to_dict(),
    }


def _ab_table(arms: Dict, seed: int) -> str:
    rows = []
    for label in ("cold", "warm"):
        entry = arms[label]
        window = entry["window"]
        full = entry["full_run"]
        rows.append(
            [
                f"{label} (k={entry['replication_k']})",
                f"{window['answered']}/{window['issued']}",
                f"{window['availability']:.1%}",
                window["by_source"].get("none", 0),
                window["replica_served"],
                f"{full['max_replica_staleness_ms'] / 60_000.0:.1f} min",
                f"{full['availability']:.1%}",
            ]
        )
    return render_table(
        [
            "mode",
            "answered (wipe+30m)",
            "avail",
            "outages",
            "via replica",
            "max staleness",
            "run avail",
        ],
        rows,
        title=(
            "search availability through a directory wipe "
            f"(partition 3h-5h + wipe at 4h, P={POPULATION}, seed={seed})"
        ),
    )


def _within_bound(entry: Dict) -> bool:
    return entry["full_run"]["max_replica_staleness_ms"] <= entry["staleness_bound_ms"]


def compare(seed: int = SEED) -> ab.Comparison:
    """Cold (k=0) vs warm (k=WARM_K), each run once."""
    arms = {"cold": _run_arm(0, seed), "warm": _run_arm(WARM_K, seed)}
    cold, warm = arms["cold"], arms["warm"]
    return ab.Comparison(
        table=_ab_table(arms, seed),
        payload={
            "ab": arms,
            "cold_availability_ceiling": COLD_AVAILABILITY_CEILING,
            "population": POPULATION,
            "seed": seed,
            "warm_availability_floor": WARM_AVAILABILITY_FLOOR,
        },
        gates={
            "warm wipe-window availability at least the floor": (
                warm["window"]["availability"] >= WARM_AVAILABILITY_FLOOR
            ),
            "cold wipe-window availability at most the ceiling (an outage)": (
                cold["window"]["availability"] <= COLD_AVAILABILITY_CEILING
            ),
            "cold replica staleness within the declared bound": _within_bound(cold),
            "warm replica staleness within the declared bound": _within_bound(warm),
            "warm served a search from a replica": (
                warm["full_run"]["replica_served"] >= 1
            ),
            "cold served no search from a replica": (
                cold["full_run"]["replica_served"] == 0
            ),
        },
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI front door; the test below is ``main([])``."""
    args = ab.parser(
        "search availability under directory wipe (cold vs warm)", SEED
    ).parse_args(argv)
    return ab.report((compare(args.seed), args.output))


def test_replicated_search_survives_directory_wipe(benchmark):
    assert benchmark.pedantic(main, args=([],), rounds=1, iterations=1) == 0


if __name__ == "__main__":
    sys.exit(main())
