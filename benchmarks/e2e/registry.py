"""Every metric the benchmark reports: name, clock, unit, direction, bound.

Two clocks, always named.  *host* is what the simulator costs on this
machine and is noisy; *sim* is what the modelled CDN does and is a pure
function of ``(config, seed)``, so it repeats exactly and any movement
is a behaviour change, not a speed-up.

Later issues name metrics and workloads exactly as spelled here.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

from .layers import LAYERS

#: The literal reported where a workload's plane is off.
NA = "n/a"


class EndToEnd(NamedTuple):
    """One end-to-end metric.

    ``bound`` is how far the metric may move in the worse direction
    between two measurements of the same seed before it counts as a
    regression: a share of the baseline when ``relative``, else an
    absolute difference.  ``bound_overrides`` widens it per workload.
    """

    name: str
    clock: str
    unit: str
    better: str
    bound: float
    relative: bool
    definition: str
    bound_overrides: Tuple[Tuple[str, float], ...] = ()

    def bound_for(self, workload: str) -> float:
        return dict(self.bound_overrides).get(workload, self.bound)

    def regressed(self, workload: str, baseline: float, value: float) -> bool:
        """True if *value* is worse than *baseline* by more than the bound."""
        worse = value - baseline if self.better == "lower" else baseline - value
        allowed = self.bound_for(workload)
        if self.relative:
            allowed *= abs(baseline)
        return worse > allowed


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd(
        "setup_s", "host", "s", "lower", 0.10, True,
        "fresh interpreter, from just before the first `import repro` to the "
        "world built (chaos: plan generated + world built by a discarded "
        "build_world; sharded: import + config only, cells are built inside the "
        "run), corrected for the host's speed like run_s",
    ),
    EndToEnd(
        "run_s", "host", "s", "lower", 0.10, True,
        "wall time of the run to the horizon, tracing off, corrected for the "
        "host's speed drift (README: 'How run_s is measured'; sharded: raw wall)",
        bound_overrides=(("sharded", 0.15),),
    ),
    EndToEnd(
        "queries_per_s", "host", "1/s", "higher", 0.10, True,
        "terminal query records / run_s",
        bound_overrides=(("sharded", 0.15),),
    ),
    EndToEnd(
        "peak_rss_mb", "host", "MB", "lower", 0.10, True,
        "ru_maxrss of the run process when the run returns "
        "(sharded: parent + largest child)",
    ),
    EndToEnd(
        "hit_ratio", "sim", "ratio", "higher", 0.01, False,
        "hits / (hits + misses) over served queries (paper Fig. 3)",
    ),
    EndToEnd(
        "lookup_ms_p50", "sim", "ms", "lower", 0.01, True,
        "median lookup latency over served queries that left the peer "
        "(served outcomes minus hit_local; paper Fig. 4)",
    ),
    EndToEnd(
        "lookup_ms_p99", "sim", "ms", "lower", 0.01, True,
        "p99 of the same sample (> 1 000 samples on every workload, "
        "so >= 10 lie beyond it)",
    ),
    EndToEnd(
        "transfer_ms_mean", "sim", "ms", "lower", 0.01, True,
        "mean querier->provider distance over served queries (paper Fig. 5)",
    ),
    EndToEnd(
        "failed_ratio", "sim", "ratio", "lower", 0.002, False,
        "(failed_* and shed_* records + queries open at the horizon that were "
        "issued more than 2 simulated minutes before it) / queries issued",
    ),
    EndToEnd(
        "shed_ratio", "sim", "ratio", "lower", 0.002, False,
        "shed_overload records / queries issued (overload only)",
    ),
    EndToEnd(
        "offload_ratio", "sim", "ratio", "higher", 0.005, False,
        "p2p_bytes / (p2p_bytes + origin_bytes) of chunked transfers (swarm only)",
    ),
    EndToEnd(
        "audit_violations", "sim", "count", "lower", 0.0, False,
        "invariant violations the online auditor reported (chaos only; 0 at seed)",
    ),
)

END_TO_END_BY_NAME: Dict[str, EndToEnd] = {m.name: m for m in END_TO_END}


class Count(NamedTuple):
    """One exact per-layer count (tracing off, identical across runs)."""

    name: str
    unit: str
    better: str


#: Exact counts read from public attributes after an untraced run.
#: ``host.*`` and the two ``*_per_s``/``speedup`` figures are host-clock
#: and therefore not exact; they sit here because they describe a layer.
COUNTS: Tuple[Count, ...] = (
    Count("sim.events", "count", "lower"),
    Count("sim.events_per_query", "ratio", "lower"),
    Count("sim.events_per_s", "1/s", "higher"),
    Count("sim.peak_pending", "count", "lower"),
    Count("net.msgs", "count", "lower"),
    Count("net.msgs_per_query", "ratio", "lower"),
    Count("net.drops", "count", "lower"),
    Count("net.rpc_retries", "count", "lower"),
    Count("dht.msgs", "count", "lower"),
    Count("gossip.msgs", "count", "lower"),
    Count("cdn.flower.msgs", "count", "lower"),
    Count("cdn.squirrel.msgs", "count", "lower"),
    Count("cdn.server.msgs", "count", "lower"),
    Count("dht.lookups", "count", "lower"),
    Count("dht.reroutes", "count", "lower"),
    Count("workload.arrivals", "count", "higher"),
    Count("workload.departures", "count", "higher"),
    Count("workload.openloop_issued", "count", "higher"),
    Count("workload.openloop_candidates", "count", "lower"),
    Count("cdn.base.queries_issued", "count", "higher"),
    Count("cdn.base.queries_open_at_end", "count", "lower"),
    Count("cdn.flower.directories", "count", "lower"),
    Count("cdn.flower.queries_shed", "count", "lower"),
    Count("cdn.flower.members_shed", "count", "lower"),
    Count("cdn.flower.hint_hops", "count", "lower"),
    Count("cdn.flower.hint_hit_ratio", "ratio", "higher"),
    Count("cdn.flower.rebalance_spills", "count", "lower"),
    Count("cdn.flower.rebalance_adoptions", "count", "higher"),
    Count("cdn.flower.peak_queue_depth", "count", "lower"),
    Count("cdn.swarm.transfers_started", "count", "higher"),
    Count("cdn.swarm.transfers_degraded", "count", "lower"),
    Count("cdn.swarm.transfers_failed", "count", "lower"),
    Count("cdn.swarm.restarts", "count", "lower"),
    Count("cdn.swarm.chunk_retries", "count", "lower"),
    Count("net.bandwidth.flows_started", "count", "lower"),
    Count("net.bandwidth.flows_aborted", "count", "lower"),
    Count("net.bandwidth.peak_concurrent", "count", "lower"),
    Count("chaos.audits", "count", "higher"),
    Count("chaos.queries_opened", "count", "higher"),
    Count("chaos.reacquired_slots", "count", "higher"),
    Count("metrics.records", "count", "higher"),
    Count("sim.sharded.bus_entries", "count", "lower"),
    Count("sim.sharded.speedup_vs_1", "ratio", "higher"),
    Count("sim.sharded.worker_cpu_s", "s", "lower"),
    Count("host.run_wall_s", "s", "lower"),
    Count("host.run_s_min", "s", "lower"),
    Count("host.run_s_iqr", "ratio", "lower"),
    Count("host.trace_overhead", "ratio", "lower"),
    Count("host.calibration_ops_per_s", "1/s", "higher"),
)

#: Counts that are host-clock measurements, so they differ run to run.
HOST_COUNTS = frozenset(
    {
        "sim.events_per_s",
        "sim.sharded.speedup_vs_1",
        "sim.sharded.worker_cpu_s",
        "host.run_wall_s",
        "host.run_s_min",
        "host.run_s_iqr",
        "host.trace_overhead",
        "host.calibration_ops_per_s",
    }
)

#: From the traced run: ``<layer>.self_s`` and ``<layer>.share``.
TRACED: Tuple[Count, ...] = tuple(
    count
    for layer in LAYERS
    for count in (
        Count(f"{layer}.self_s", "s", "lower"),
        Count(f"{layer}.share", "ratio", "lower"),
    )
)

PER_LAYER: Tuple[Count, ...] = COUNTS + TRACED

#: A traced run must attribute at least this much to named layers.
MAX_OTHER_SHARE = 0.05

# --- the contract file (``BENCHMARK.json``) -------------------------------
#
# The driver that reads ``BENCHMARK.json`` runs every workload under ten
# different seeds and wants every end-to-end metric on every workload,
# never 0, under one relative bound of at most 0.25 that also covers the
# spread *across* those seeds.  Seven of the twelve qualify, one of them
# as its complement.  The rest go to the driver beside the per-layer
# metrics, which carry no bound: three exist on one workload only,
# ``failed_ratio`` may be 0, and ``lookup_ms_p50`` / ``transfer_ms_mean``
# move by 44 % / 27 % from seed to seed on ``overload``.  The bounds in
# the table above are same-seed bounds; ``--repeat-check`` enforces them.

#: ``served_ratio = 1 - failed_ratio``: never 0, and a relative bound on
#: it is an absolute bound on ``failed_ratio``.
SERVED_RATIO = "served_ratio"

#: name -> cross-seed bound (README: "Bounds across seeds").
CONTRACT_END_TO_END: Dict[str, float] = {
    "setup_s": 0.25,
    "run_s": 0.25,
    "queries_per_s": 0.25,
    "peak_rss_mb": 0.15,
    "hit_ratio": 0.20,
    "lookup_ms_p99": 0.25,
    SERVED_RATIO: 0.25,
}

CONTRACT_EXTRA_PER_LAYER: Tuple[str, ...] = tuple(
    metric.name
    for metric in END_TO_END
    if metric.name not in CONTRACT_END_TO_END
)


#: The unit of every metric this package reports, by name.
UNITS: Dict[str, str] = {
    **{metric.name: metric.unit for metric in END_TO_END + PER_LAYER},
    SERVED_RATIO: "ratio",
}
