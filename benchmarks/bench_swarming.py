"""Swarming transfer robustness: cold vs warm seeder-death A/B.

The paper models a content fetch as one atomic RPC, so a serving peer
that dies mid-download is invisible by construction.  This bench makes
the failure mode observable: heavy-tailed object sizes over a
bandwidth-limited network (finite per-peer uplinks, a slice of them
slow), chunked transfers, and two mid-run seeder-death strikes that
crash the top uploaders -- the peers most likely to be carrying
somebody's transfer when they die.  The two arms differ only in the
transfer machinery:

- **cold** -- the single-source baseline: one provider, one chunk in
  flight, no chunk replication, and ``swarm_resume=False`` so any source
  failure discards all progress and re-fetches the whole object from the
  origin (the atomic-RPC behaviour, made chunk-visible);
- **warm** -- the swarming extension: parallel rarest-first chunk fetch
  from up to ``swarm_sources`` holders, k-replicated chunk placement
  across petal members, and per-chunk failover with resume -- completed
  chunks are never re-fetched, and only the *remaining* chunks degrade
  to the origin when every P2P source is gone.

The acceptance gates, each named in :func:`compare`:

- warm terminally accounts **100%** of its transfers (so does cold):
  nothing open at the horizon beyond a short in-flight grace;
- warm **never restarts from zero** (``restarts == 0``) while cold,
  facing the same strikes, does;
- warm completes >= 99% of its started transfers (completed or
  degraded -- a transfer lost only to the downloader's own crash is
  terminally accounted but cannot complete);
- warm keeps **strictly more bytes off the origin** than cold
  (higher offload fraction).

CLI front door (:mod:`benchmarks.ab`), the one writer of the committed
``results/swarming_transfer.{json,txt}`` pair (the table goes beside the
JSON)::

    PYTHONPATH=src python -m benchmarks.bench_swarming \
        --output results/swarming_transfer.json

which exits non-zero when any gate fails.

Always reduced scale: each A/B runs two full systems end-to-end (see the
ablations note in bench_ablations.py).
"""

import sys
from typing import Dict, List, Optional

from benchmarks import ab
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_world
from repro.metrics.distribution import Distribution
from repro.metrics.report import render_table
from repro.sim.clock import hours, minutes

POPULATION = 180
SEED = 17
DURATION_HOURS = 6.0

#: Strike schedule (fractions of the horizon): late enough that petals
#: formed, chunk replicas spread, and upload counters identify the real
#: seeders; far enough apart that the system re-converges between kills.
STRIKE_FRACTIONS = (0.45, 0.7)
STRIKE_COUNT = 4
#: A strike that finds no transfer in flight re-polls at this period
#: until one does: the whole point is killing a seeder *mid-transfer*,
#: and transfers are seconds long against an hours-long horizon.
STRIKE_POLL_MS = 500.0

#: A transfer still open at the horizon is only a leak if it had time to
#: terminate; anything started within this grace of the cut-off is
#: legitimately in flight (chunk retries back off up to 8 s, and a
#: degraded tail re-fetches its remaining chunks from the origin).
ACCOUNTING_GRACE = minutes(2.0)


def _swarm_config(warm: bool) -> ExperimentConfig:
    return ExperimentConfig.scaled(
        population=POPULATION,
        duration_hours=DURATION_HOURS,
        num_websites=6,
        num_active_websites=2,
        num_localities=2,
        objects_per_website=40,
        # --- the shared transfer substrate (identical across arms) ---
        swarming=True,
        swarm_chunk_kb=64,
        object_mean_kb=256.0,
        object_max_kb=4096.0,
        bandwidth_kbps=4000.0,
        bandwidth_slow_fraction=0.2,
        bandwidth_slow_factor=8.0,
        # --- the machinery under test ---
        swarm_parallel=4 if warm else 1,
        swarm_sources=4 if warm else 1,
        swarm_resume=warm,
        swarm_replicate=2 if warm else 0,
    )


def _run_arm(warm: bool, seed: int) -> Dict:
    world = build_world("flower", _swarm_config(warm), seed)
    system = world.system
    bandwidth = world.network.bandwidth
    strikes_landed = []

    # Unlike the chaos lane (which strikes blind at a planned instant and
    # is legitimately inert when nothing is uploading), the A/B must
    # observe mid-transfer death: each strike polls until it catches
    # peers with chunk uploads in flight, then crashes the busiest.
    def strike() -> None:
        uploading = sorted(
            (
                peer
                for peer in system.peers.values()
                if peer.alive and bandwidth.active_flows(peer.address) > 0
            ),
            key=lambda p: (
                -bandwidth.active_flows(p.address),
                -p.bytes_uploaded,
                p.address,
            ),
        )
        if not uploading:
            world.sim.schedule(STRIKE_POLL_MS, strike)
            return
        for peer in uploading[:STRIKE_COUNT]:
            strikes_landed.append(peer.address)
            peer.crash()

    for fraction in STRIKE_FRACTIONS:
        world.sim.schedule(fraction * hours(DURATION_HOURS), strike)
    # Terminal transfer outcomes with elapsed times, straight off the
    # trace stream (subscribing enables the gated swarm.done emits).
    closes: List[Dict] = []
    world.sim.trace.subscribe(
        "swarm.done", lambda event: closes.append(dict(event.payload))
    )
    world.run()
    stats = system.stats().swarm.to_dict()
    # Terminal accounting: every transfer old enough to have terminated
    # must have closed (completed / degraded / failed); only transfers
    # started within the grace of the cut-off may still be open.
    cutoff = hours(DURATION_HOURS) - ACCOUNTING_GRACE
    open_at_end = 0
    stale_open = 0
    for peer in system.peers.values():
        for transfer in peer._swarms.values():
            open_at_end += 1
            if transfer.started_at < cutoff:
                stale_open += 1
    started = stats["transfers_started"]
    closed = (
        stats["transfers_completed"]
        + stats["transfers_degraded"]
        + stats["transfers_failed"]
    )
    finished = stats["transfers_completed"] + stats["transfers_degraded"]
    elapsed = Distribution(
        [c["elapsed_ms"] for c in closes if c["outcome"] != "failed"]
    )
    return {
        "warm": warm,
        "started": started,
        "completed": stats["transfers_completed"],
        "degraded": stats["transfers_degraded"],
        "failed": stats["transfers_failed"],
        "restarts": stats["restarts"],
        "chunk_retries": stats["chunk_retries"],
        "open_at_end": open_at_end,
        "stale_open": stale_open,
        "accounted_fraction": (closed + open_at_end) / started if started else 1.0,
        "completion_fraction": finished / started if started else 1.0,
        "p2p_bytes": stats["p2p_bytes"],
        "origin_bytes": stats["origin_bytes"],
        "offload_fraction": stats["offload_fraction"],
        "flows_aborted": stats.get("flows_aborted", 0),
        "slow_peers": stats.get("slow_peers", 0),
        "seeders_killed": len(strikes_landed),
        "transfer_p50_ms": elapsed.percentile(50.0),
        "transfer_p99_ms": elapsed.percentile(99.0),
        "hit_ratio": system.metrics.hit_ratio(),
        "hit_swarm": system.metrics.outcome_count("hit_swarm"),
        "miss_degraded": system.metrics.outcome_count("miss_degraded"),
    }


def _ab_table(arms: Dict, seed: int) -> str:
    rows = []
    for label in ("cold", "warm"):
        entry = arms[label]
        rows.append(
            [
                label,
                entry["started"],
                f"{entry['completion_fraction']:.1%}",
                entry["restarts"],
                entry["chunk_retries"],
                f"{entry['offload_fraction']:.1%}",
                f"{entry['origin_bytes'] / 1e6:.1f} MB",
                f"{entry['transfer_p50_ms']:.0f} ms",
                f"{entry['transfer_p99_ms']:.0f} ms",
                f"{entry['accounted_fraction']:.1%}",
            ]
        )
    return render_table(
        [
            "mode",
            "transfers",
            "finished",
            "restarts",
            "chunk retries",
            "offload",
            "origin traffic",
            "p50",
            "p99",
            "accounted",
        ],
        rows,
        title=(
            f"seeder death x{len(STRIKE_FRACTIONS)} (top {STRIKE_COUNT} "
            f"uploaders) over {POPULATION} peers, seed={seed}, "
            "4 Mbps uplinks (20% at 1/8 speed)"
        ),
    )


def compare(seed: int = SEED) -> ab.Comparison:
    """Cold (single-source restart) vs warm (swarming failover), each run
    once."""
    cold, warm = _run_arm(False, seed), _run_arm(True, seed)
    return ab.Comparison(
        table=_ab_table({"cold": cold, "warm": warm}, seed),
        payload={
            "population": POPULATION,
            "duration_hours": DURATION_HOURS,
            "seed": seed,
            "cold": cold,
            "warm": warm,
        },
        gates={
            # The strikes actually bit: both arms lost chunk sources
            # mid-flight, and cold paid with restarts-from-zero.
            "cold retried chunks": cold["chunk_retries"] > 0,
            "warm retried chunks": warm["chunk_retries"] > 0,
            "cold restarted from zero": cold["restarts"] > 0,
            # 100% terminal accounting in both arms: nothing open at the
            # horizon beyond the in-flight grace.
            "cold accounts for every transfer": cold["stale_open"] == 0,
            "warm accounts for every transfer": warm["stale_open"] == 0,
            # Progress is resumed, not discarded.
            "warm never restarts from zero": warm["restarts"] == 0,
            "warm finishes at least 99% of its transfers": (
                warm["completion_fraction"] >= 0.99
            ),
            "warm offloads more bytes than cold": (
                warm["offload_fraction"] > cold["offload_fraction"]
            ),
        },
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI front door; the test below is ``main([])``."""
    args = ab.parser("seeder-death cold vs warm swarming A/B", SEED).parse_args(argv)
    return ab.report((compare(args.seed), args.output))


def test_swarming_survives_seeder_death(benchmark):
    assert benchmark.pedantic(main, args=([],), rounds=1, iterations=1) == 0


if __name__ == "__main__":
    sys.exit(main())
