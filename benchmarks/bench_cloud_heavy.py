"""Cloud-heavy overload: open-loop saturation and replica-aware shedding A/B.

The paper's workload (Table 1) is closed-loop, so its directories can
never saturate: queueing delay throttles the clients and overload is
unobservable by construction.  This bench drives both PetalUp arms with
the *open-loop* arrival process (:mod:`repro.workload.openloop`) -- a
Poisson base rate with a diurnal cycle, doubled by a sustained
regionally-correlated flash crowd -- against bounded directory admission
queues, and compares how the two overload strategies degrade:

- **cold** (``k=0``, ``overload_shedding=False``) -- the paper's pure
  section 4 behaviour: a full queue sheds with no redirect hint, splits
  are triggered only by the member-count test, and every split seeds an
  *empty* instance that clients must discover through the serial
  instance scan;
- **warm** (``k=WARM_K``, ``overload_shedding=True``) -- the overload
  extension: queue-pressure sheds carry a redirect to the successor
  instance, splits seed the new instance with half the member partition
  (so it is warm from its first admitted query), and an overloaded
  instance sheds members directly to its successor instead of waiting
  for the scan to rebalance them.

Reported per arm: pre-overload vs overload-window lookup-latency
percentiles (p50/p99/p999 over remotely-resolved queries -- local cache
hits are free and would drown the tail), queue/shed counters, terminal
accounting, and the Gini coefficient of per-directory query load
(:func:`repro.metrics.gini`).

Every arm runs at :data:`PAIRED_SEEDS` consecutive seeds.  The
acceptance gates, each named in :func:`compare`:

- warm shows **no scan-latency cliff**: overload-window p99 stays within
  2x its own pre-overload p99, at every seed;
- **every** query is terminally accounted in both arms, at every seed:
  sheds included, no ledger entry left open at the horizon beyond a
  short in-flight grace for queries issued just before the cut-off;
- warm spreads directory load **more evenly**: the median over seeds of
  the paired Gini difference (warm minus cold) is below zero.

A third, reactive arm (warm + redirect hints + content rebalancing) must
lower the overload-window content Gini and the directory sheds against
warm at an overload p99 no worse, each in the median of the paired
differences.

CLI front door (:mod:`benchmarks.ab`), the one writer of the committed
``results/cloud_heavy_{overload,rebalance}.{json,txt}`` pairs (each table
goes beside its JSON)::

    PYTHONPATH=src python -m benchmarks.bench_cloud_heavy \
        --output results/cloud_heavy_overload.json \
        --output-rebalance results/cloud_heavy_rebalance.json

which exits non-zero when any gate fails.

Always reduced scale: each A/B runs two full systems end-to-end (see the
ablations note in bench_ablations.py).
"""

import sys
from concurrent.futures import ProcessPoolExecutor
from statistics import median
from typing import Dict, List, Optional, Tuple

from benchmarks import ab
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_world
from repro.metrics.collector import SERVED_OUTCOMES
from repro.metrics.distribution import Distribution
from repro.metrics.loadbalance import gini
from repro.metrics.report import render_table
from repro.sim.clock import hours, minutes

#: One scale for CI and the committed results: at 60, 90 and 120 peers
#: a paired premise fails in the median of seeds 17-21 before any change
#: (warm directory Gini below cold at 60 and 90, rebalance content Gini
#: below warm at 120), so a smaller smoke run would gate noise.
POPULATION = 180
SEED = 17
#: Every arm runs at this many consecutive seeds from ``--seed`` on,
#: the seeds on this many processes.
PAIRED_SEEDS = 5
SEED_WORKERS = 2
WARM_K = 2

DURATION_HOURS = 6.0
#: The sustained flash crowd: ramps over 10 minutes at the 3 h mark to
#: double the offered load, then decays so slowly (50 h constant) that
#: the rest of the run is effectively a 2x plateau.
SURGE_START = hours(3.0)
SURGE_RAMP = minutes(10.0)
SURGE_PEAK = 2.0
SURGE_DECAY = hours(50.0)

#: Measurement windows: [1 h, surge start) is the steady pre-overload
#: baseline (the first hour is bootstrap noise), [ramp end, horizon] is
#: the sustained-overload window.
PRE_WINDOW = (hours(1.0), SURGE_START)
OVERLOAD_WINDOW = (SURGE_START + SURGE_RAMP, hours(DURATION_HOURS))

#: Latency percentiles cover queries that actually left the peer; local
#: cache hits cost nothing and would bury the directory-path tail.
REMOTE_OUTCOMES = frozenset(SERVED_OUTCOMES - {"hit_local"})

#: A ledger entry still open at the horizon is only a leak if the query
#: had time to terminate: anything issued within this grace of the
#: cut-off is legitimately in flight (the open-loop process issues
#: queries up to the very last tick).  Two minutes comfortably covers
#: the worst case -- a full instance scan with RPC retries plus the
#: maximum queue wait.
ACCOUNTING_GRACE = minutes(2.0)


def _overload_config(
    replication_k: int,
    shedding: bool,
    population: int = POPULATION,
    hints: bool = False,
    rebalance: bool = False,
) -> ExperimentConfig:
    return ExperimentConfig.scaled(
        population=population,
        duration_hours=DURATION_HOURS,
        num_websites=6,
        num_active_websites=2,
        num_localities=2,
        # A catalog several times the per-peer cache: open-loop repeats
        # keep missing, so directories see sustained query pressure.
        objects_per_website=120,
        peer_cache_capacity=15,
        directory_replication_k=replication_k,
        directory_load_limit=12,
        max_instances=8,
        openloop_rate_qps=population / 6.0,
        openloop_diurnal_amplitude=0.25,
        openloop_surges=(
            (SURGE_START, SURGE_RAMP, SURGE_PEAK, SURGE_DECAY, 0, -1, 0.9),
        ),
        directory_queue_limit=6,
        directory_service_ms=400.0,
        overload_shedding=shedding,
        redirect_hints=hints,
        rebalance=rebalance,
        # Reactive-arm operating point: sweeps tick hourly, so a non-zero
        # cooldown would leave each pressured directory a single spill
        # pass inside the 3h overload window.  Spill every pressured
        # sweep, wide enough (32 keys) to cover the hot set -- the petals
        # hold ~P/4 members each, so narrower passes dilute into the
        # zero-fetch tail and the window Gini barely moves.
        rebalance_cooldown_rounds=0,
        rebalance_max_keys=32,
        rebalance_budget_kb=8192.0,
    )


def _window_percentiles(records, window) -> Dict:
    lo, hi = window
    values = Distribution(
        [
            r.lookup_latency_ms
            for r in records
            if lo <= r.time < hi and r.outcome in REMOTE_OUTCOMES
        ]
    )
    return {
        "count": len(values),
        "p50": values.percentile(50.0),
        "p99": values.percentile(99.0),
        "p999": values.percentile(99.9),
    }


#: A petal must carry at least this share of the overload-window traffic
#: for its instances (or content peers) to enter a balance Gini: petals of
#: inactive websites see members-only trickle and would otherwise drown
#: the comparison in structural (active-vs-inactive) inequality neither
#: strategy controls.
_ACTIVE_PETAL_SHARE = 0.01


def _window_counts(detail: Dict, baseline: Dict, counter: str) -> List[float]:
    """Per-address overload-window *counter* counts over the loaded petals:
    ``"queries"`` per directory instance, ``"fetches"`` per content peer.

    A counter below its window-start snapshot means the peer demoted and
    re-promoted mid-window (the role restarts its counters), so the full
    current count is window traffic.
    """
    windowed = {}
    for address, entry in detail.items():
        count = entry[counter] - baseline.get(address, 0)
        if count < 0:
            count = entry[counter]
        windowed[address] = (entry["website"], entry["locality"], count)
    petal_totals: Dict = {}
    for website, locality, count in windowed.values():
        petal = (website, locality)
        petal_totals[petal] = petal_totals.get(petal, 0) + count
    floor = _ACTIVE_PETAL_SHARE * sum(petal_totals.values())
    return [
        float(count)
        for website, locality, count in windowed.values()
        if petal_totals[(website, locality)] >= floor
    ]


def _run_arm(
    replication_k: int,
    shedding: bool,
    population: int,
    seed: int,
    hints: bool = False,
    rebalance: bool = False,
) -> Dict:
    config = _overload_config(
        replication_k,
        shedding,
        population=population,
        hints=hints,
        rebalance=rebalance,
    )
    world = build_world("petalup", config, seed)
    system = world.system
    # Snapshot cumulative per-directory query counts (and per-peer
    # content fetches) as the overload window opens; the end-of-run diff
    # gives each instance's/peer's share of the overload-window traffic
    # (the Gini inputs).
    baseline_counts: Dict = {}
    baseline_fetches: Dict = {}

    def _capture_baseline() -> None:
        snapshot = system.stats().overload
        for address, detail in snapshot.directory_detail.items():
            baseline_counts[address] = detail["queries"]
        for address, detail in snapshot.content_detail.items():
            baseline_fetches[address] = detail["fetches"]

    world.sim.schedule(OVERLOAD_WINDOW[0], _capture_baseline)
    world.run()
    records = system.metrics.records
    pre = _window_percentiles(records, PRE_WINDOW)
    over = _window_percentiles(records, OVERLOAD_WINDOW)
    overload = system.stats().overload.to_dict()
    # Terminal accounting: every query old enough to have terminated must
    # have closed its ledger entry by the horizon (crash sweeps and sheds
    # both count as closed); queries issued within the grace of the
    # cut-off are legitimately still in flight.
    cutoff = hours(DURATION_HOURS) - ACCOUNTING_GRACE
    open_at_end = 0
    stale_open = 0
    for peer in system.peers.values():
        for started_at in peer._open_queries.values():
            open_at_end += 1
            if started_at < cutoff:
                stale_open += 1
    issued = len(records) + stale_open
    return {
        "replication_k": replication_k,
        "overload_shedding": shedding,
        "redirect_hints": hints,
        "rebalance": rebalance,
        "pre": pre,
        "overload": over,
        "p99_ratio": (over["p99"] / pre["p99"]) if pre["p99"] > 0 else 0.0,
        "queries": len(records),
        "open_at_end": open_at_end,
        "stale_open": stale_open,
        "accounted_fraction": len(records) / issued if issued else 1.0,
        "hit_ratio": system.metrics.hit_ratio(),
        "shed_queries": system.metrics.sheds,
        "directory_sheds": overload["queries_shed"],
        "members_shed": overload["members_shed"],
        "peak_queue_depth": overload["peak_queue_depth"],
        "directories": overload["directories"],
        "instances": overload["instances"],
        # Directory load for the balance gate = each instance's share of
        # the *overload-window* query traffic, over the petals that
        # carried it.  Cumulative counts and end-of-run member counts
        # are poor gates: instances spawned mid-run are structurally
        # behind on the former, and keepalive migration equalizes the
        # latter long after the damage is done.
        "hint_hops": overload["hint_hops"],
        "hint_hits": overload["hint_hits"],
        "hint_stale": overload["hint_stale"],
        "rebalance_spills": overload["rebalance_spills"],
        "rebalance_adoptions": overload["rebalance_adoptions"],
        "rebalance_kb": overload["rebalance_kb"],
        "gini_directory_load": gini(
            _window_counts(overload["directory_detail"], baseline_counts, "queries")
        ),
        "gini_directory_members": gini(overload["directory_loads"]),
        "gini_directory_queries": gini(overload["directory_queries"]),
        "gini_content_load": gini(overload["content_fetches"]),
        "gini_content_window": gini(
            _window_counts(overload["content_detail"], baseline_fetches, "fetches")
        ),
        "openloop": dict(world.openloop.stats),
    }


def _ab_table(runs: List[Dict], population: int) -> str:
    rows = []
    for run in runs:
        for label in ("cold", "warm"):
            entry = run[label]
            rows.append(
                [
                    run["seed"],
                    f"{label} (k={entry['replication_k']})",
                    f"{entry['pre']['p99']:.0f} ms",
                    f"{entry['overload']['p99']:.0f} ms",
                    f"{entry['p99_ratio']:.2f}x",
                    entry["shed_queries"],
                    entry["members_shed"],
                    entry["peak_queue_depth"],
                    f"{entry['gini_directory_load']:.3f}",
                    f"{entry['accounted_fraction']:.1%}",
                    f"{entry['hit_ratio']:.3f}",
                ]
            )
    return render_table(
        [
            "seed",
            "mode",
            "pre p99",
            "overload p99",
            "p99 ratio",
            "shed",
            "members shed",
            "peak depth",
            "dir Gini",
            "accounted",
            "hit ratio",
        ],
        rows,
        title=(
            f"sustained {SURGE_PEAK:.0f}x overload from "
            f"{SURGE_START / 3_600_000.0:.0f}h "
            f"(P={population}, queue=6, service=400ms)"
        ),
    )


def _rebalance_table(runs: List[Dict], population: int) -> str:
    rows = []
    for run in runs:
        for label in ("warm", "rebalance"):
            entry = run[label]
            rows.append(
                [
                    run["seed"],
                    label,
                    f"{entry['overload']['p99']:.0f} ms",
                    entry["directory_sheds"],
                    entry["hint_hops"],
                    entry["hint_hits"],
                    entry["hint_stale"],
                    entry["rebalance_spills"],
                    entry["rebalance_adoptions"],
                    f"{entry['gini_content_window']:.3f}",
                    f"{entry['accounted_fraction']:.1%}",
                ]
            )
    return render_table(
        [
            "seed",
            "mode",
            "overload p99",
            "dir sheds",
            "hint hops",
            "hint hits",
            "stale",
            "spills",
            "adoptions",
            "content Gini",
            "accounted",
        ],
        rows,
        title=(
            f"warm vs hints+rebalance under sustained {SURGE_PEAK:.0f}x "
            f"overload (P={population})"
        ),
    )


def _run_seed(seed: int, population: int) -> Dict:
    """The three arms at one seed."""
    return {
        "seed": seed,
        "cold": _run_arm(0, False, population, seed),
        "warm": _run_arm(WARM_K, True, population, seed),
        "rebalance": _run_arm(
            WARM_K, True, population, seed, hints=True, rebalance=True
        ),
    }


def _paired_median(runs: List[Dict], arm: str, than: str, metric) -> float:
    """The median over seeds of ``metric(run[arm]) - metric(run[than])``."""
    return median(metric(run[arm]) - metric(run[than]) for run in runs)


def compare(
    seed: int = SEED, population: int = POPULATION
) -> Tuple[ab.Comparison, ab.Comparison]:
    """The overload (cold vs warm) and rebalance (warm vs reactive)
    comparisons over three arms, each run once at each of the
    :data:`PAIRED_SEEDS` seeds from *seed* on: the warm arm is shared.

    A gate on one arm must hold at every seed; a gate comparing two arms
    holds in the median of their paired differences, since one run of
    this chaotic system is a draw that any change to a shared random
    stream redraws."""
    seeds = range(seed, seed + PAIRED_SEEDS)
    # Runs are independent and deterministic, so two processes are exact
    # and keep the five seeds' wall time near one seed's.
    with ProcessPoolExecutor(max_workers=SEED_WORKERS) as pool:
        runs = list(pool.map(_run_seed, seeds, [population] * len(seeds)))

    def every(arm: str, holds) -> bool:
        return all(holds(run[arm]) for run in runs)

    medians = {
        "warm minus cold directory Gini": _paired_median(
            runs, "warm", "cold", lambda arm: arm["gini_directory_load"]
        ),
        "rebalance minus warm content Gini": _paired_median(
            runs, "rebalance", "warm", lambda arm: arm["gini_content_window"]
        ),
        "rebalance minus warm directory sheds": _paired_median(
            runs, "rebalance", "warm", lambda arm: arm["directory_sheds"]
        ),
        "rebalance minus warm overload p99 ms": _paired_median(
            runs, "rebalance", "warm", lambda arm: arm["overload"]["p99"]
        ),
    }
    medians_line = "paired medians over seeds: " + ", ".join(
        f"{name} {value:+.3f}" for name, value in medians.items()
    )
    overload = ab.Comparison(
        table=_ab_table(runs, population) + "\n" + medians_line,
        payload={
            "population": population,
            "seeds": [run["seed"] for run in runs],
            "paired_medians": medians,
            "runs": runs,
        },
        gates={
            # The overload actually bit: queries were shed in both arms.
            "cold shed queries": every("cold", lambda arm: arm["shed_queries"] > 0),
            "warm shed queries": every("warm", lambda arm: arm["shed_queries"] > 0),
            # No scan-latency cliff under replica-aware shedding.
            "warm overload p99 within 2x its pre-overload p99": every(
                "warm", lambda arm: arm["overload"]["p99"] <= 2.0 * arm["pre"]["p99"]
            ),
            # Every query terminally accounted: nothing open at the
            # horizon beyond the in-flight grace.
            "cold accounts for every query": every(
                "cold", lambda arm: arm["stale_open"] == 0
            ),
            "warm accounts for every query": every(
                "warm", lambda arm: arm["stale_open"] == 0
            ),
            # Replica-aware shedding spreads directory load more evenly,
            # and the win is attributable: members moved without a scan.
            "warm directory Gini below cold": medians["warm minus cold directory Gini"]
            < 0,
            "warm shed members": every("warm", lambda arm: arm["members_shed"] > 0),
            "cold shed no member": every("cold", lambda arm: arm["members_shed"] == 0),
        },
    )
    rebalance = ab.Comparison(
        table=_rebalance_table(runs, population) + "\n" + medians_line,
        payload={
            "population": population,
            "seeds": [run["seed"] for run in runs],
            "paired_medians": medians,
            "runs": [
                {label: run[label] for label in ("seed", "warm", "rebalance")}
                for run in runs
            ],
        },
        gates={
            # The reactive arm actually reacted, and the warm arm never
            # pays for machinery it did not enable.
            "rebalance routed on hints": every(
                "rebalance", lambda arm: arm["hint_hops"] > 0
            ),
            "rebalance adopted spills": every(
                "rebalance", lambda arm: arm["rebalance_adoptions"] > 0
            ),
            "warm took no hint hop": every("warm", lambda arm: arm["hint_hops"] == 0),
            "warm spilled nothing": every(
                "warm", lambda arm: arm["rebalance_spills"] == 0
            ),
            # Rebalancing spreads overload-window content serving more
            # evenly, and hint pre-routing plus extra holders reduce
            # admission-queue sheds...
            "rebalance content Gini below warm": (
                medians["rebalance minus warm content Gini"] < 0
            ),
            "rebalance sheds fewer than warm": (
                medians["rebalance minus warm directory sheds"] < 0
            ),
            # ...without giving the tail back, and the ledger still closes.
            "rebalance overload p99 no worse than warm": (
                medians["rebalance minus warm overload p99 ms"] <= 0
            ),
            "warm accounts for every query": every(
                "warm", lambda arm: arm["stale_open"] == 0
            ),
            "rebalance accounts for every query": every(
                "rebalance", lambda arm: arm["stale_open"] == 0
            ),
        },
    )
    return overload, rebalance


def main(argv: Optional[List[str]] = None) -> int:
    """CLI front door; the test below is ``main([])``."""
    parser = ab.parser("sustained-overload cold vs warm vs rebalance A/B", SEED)
    parser.add_argument(
        "--output-rebalance",
        metavar="PATH",
        help="write the warm vs rebalance comparison as JSON, and its table beside it",
    )
    args = parser.parse_args(argv)
    overload, rebalance = compare(args.seed)
    return ab.report((overload, args.output), (rebalance, args.output_rebalance))


def test_overload_and_rebalance_gates(benchmark):
    assert benchmark.pedantic(main, args=([],), rounds=1, iterations=1) == 0


if __name__ == "__main__":
    sys.exit(main())
