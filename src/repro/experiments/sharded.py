"""Sharded experiment execution: build N shard worlds, run them in lockstep.

Front door: :func:`run_sharded_experiment` -- the sharded counterpart of
:func:`repro.experiments.runner.run_experiment`.  The world is partitioned
by locality into ``num_shards`` shards (default: one per locality, capped
by the address space), each shard gets its own fabric -- simulator, sharded
topology / network / binner, origin-server replicas, Flower system --
populated into a :class:`~repro.experiments.runner.World` by the same
:func:`~repro.experiments.runner.assemble_world` the single-simulator build
uses, and the conservative window scheduler of :mod:`repro.sim.sharded`
drives them to the horizon, locally or across forked worker processes.

Determinism: a shard's full event stream is a pure function of
``(config, seed, shard_id, num_shards)``.  Worker count only changes which
process hosts a shard, never what the shard computes -- the invariance
tests pin per-shard stream fingerprints at workers=1/2/4.

The sharded model is *not* stream-identical to the single-process build
(different topology construction, exact binning, per-shard origin servers,
bus-floored cross-shard arrivals); ``workers=1`` on the CLI therefore keeps
routing through the legacy single-simulator path, bit-identical to the
golden traces, and the sharded engine is its own model with its own pinned
goldens.

Timeout inflation: every cross-shard hop can be floored to the next window
barrier, so a round trip stretches by up to ``2 * window_ms`` beyond pure
link latency.  The shard's network carries that slack (``slack_ms``) and
widens its default timeout by it; the sharded Flower system widens the
D-ring RPC timeout by the same amount, keeping failure detection sound (no
spurious timeouts from bus scheduling alone).
"""

from __future__ import annotations

import dataclasses
import heapq
from functools import partial
from itertools import groupby
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.cdn.flower.sharded import ShardedFlowerSystem
from repro.errors import ConfigError
from repro.experiments.config import ExperimentConfig
from repro.experiments.results import ExperimentResult
from repro.experiments.runner import assemble_world, world_totals
from repro.metrics.collector import OUTCOME_NAMES, MetricsCollector, RecordColumns
from repro.net.shardnet import (
    MAX_SHARDS,
    ShardedBinner,
    ShardedNetwork,
    ShardedTopology,
    ShardMap,
    drain_outbox,
)
from repro.sim.engine import Simulator
from repro.sim.rng import derive_seed
from repro.sim.sharded import check_workers, run_windows_parallel
from repro.sim.trace import StreamFingerprint
from repro.workload.churn import ChurnSurgeSpec

if TYPE_CHECKING:
    from repro.experiments.config import ScheduleSpec

#: Protocols the sharded engine supports.  Flower's structure is the
#: parallelism argument (petal traffic is locality-internal); squirrel's
#: single global all-peer ring has no thin cut to shard along.
SHARDABLE_PROTOCOLS = ("flower",)


def default_num_shards(config: ExperimentConfig) -> int:
    """One shard per locality, folded down to fit the address space."""
    for candidate in range(min(config.num_localities, MAX_SHARDS), 0, -1):
        if config.num_localities % candidate == 0:
            return candidate
    return 1


def default_window_ms(config: ExperimentConfig) -> float:
    """Conservative lookahead window: half the maximum link latency.

    Any window <= latency_max keeps the cross-shard round trip under
    ``2 * (latency_max + window)``; half the maximum halves the worst
    added delivery delay while keeping the barrier count manageable.
    """
    return config.latency_max_ms / 2.0


def _split(total: int, num_shards: int, shard_id: int) -> int:
    """Shard *shard_id*'s share of *total*, remainder to the lowest ids."""
    return total // num_shards + (1 if shard_id < total % num_shards else 0)


def shard_schedule(
    schedule: Tuple[ScheduleSpec, ...], num_shards: int, shard_id: int
) -> Tuple[ScheduleSpec, ...]:
    """Shard *shard_id*'s share of a fault schedule.

    A churn surge is an amount, so it splits the way identities and
    population split: each shard admits its share of ``arrivals`` over the
    same window, and a zero share schedules nothing.  Every other kind is
    a condition or a per-node fraction and is installed whole on every
    shard, whose controller applies it to the traffic and nodes it hosts.
    """
    share = []
    for spec in schedule:
        if isinstance(spec, ChurnSurgeSpec):
            arrivals = _split(spec.arrivals, num_shards, shard_id)
            if arrivals == 0:
                continue
            spec = dataclasses.replace(spec, arrivals=arrivals)
        share.append(spec)
    return tuple(share)


class ShardCell:
    """One shard's fabric, populated into a :class:`World` and driven by
    the window scheduler."""

    def __init__(
        self,
        config: ExperimentConfig,
        master_seed: int,
        shard_map: ShardMap,
        shard_id: int,
        window_ms: float,
        fingerprint: bool,
    ) -> None:
        self.shard_id = shard_id
        sim = Simulator(seed=derive_seed(master_seed, f"shard-{shard_id}"))
        self.fingerprint = StreamFingerprint(sim.trace) if fingerprint else None
        topology = ShardedTopology(
            shard_map,
            topology_seed=master_seed,
            latency_min_ms=config.latency_min_ms,
            latency_max_ms=config.latency_max_ms,
        )
        network = ShardedNetwork(
            sim,
            topology,
            shard_map,
            shard_id,
            default_timeout_ms=3.0 * config.latency_max_ms,
            slack_ms=2.0 * window_ms,
        )
        binner = ShardedBinner(shard_map)
        config = config.replace(
            fault_schedule=shard_schedule(
                config.fault_schedule, shard_map.num_shards, shard_id
            )
        )
        self.world = assemble_world(
            config,
            master_seed,
            sim,
            network,
            binner,
            lambda catalog: ShardedFlowerSystem(sim, network, binner, catalog, config),
            num_identities=_split(config.num_identities, shard_map.num_shards, shard_id),
            population=_split(config.population, shard_map.num_shards, shard_id),
        )

    # ------------------------------------------------- window-scheduler API
    def run_to(self, until_ms: float) -> None:
        self.world.run(until_ms)

    def drain(self) -> List[tuple]:
        return drain_outbox(self.world.network)

    def inject(self, entries: List[tuple], barrier_ms: float) -> None:
        self.world.network.inject_entries(entries, barrier_ms)

    def finalize(self) -> Dict[str, Any]:
        """The shard's results as a plain picklable payload: the world's
        totals, which add up over shards, plus what describes this one."""
        world = self.world
        return {
            "totals": world_totals(world),
            "shard_id": self.shard_id,
            "records": world.system.metrics.records,
            "peak_pending_events": world.sim.peak_pending_events,
            "bus_entries_out": world.network.bus_entries_out,
            "fingerprint": (
                self.fingerprint.hexdigest() if self.fingerprint is not None else None
            ),
        }


def _build_cells(
    config: ExperimentConfig,
    master_seed: int,
    shard_map: ShardMap,
    window_ms: float,
    fingerprint: bool,
    shard_ids: List[int],
) -> Dict[int, ShardCell]:
    """One worker's cells: the ``CellFactory`` of a run once everything
    but *shard_ids* is bound."""
    return {
        shard_id: ShardCell(
            config, master_seed, shard_map, shard_id, window_ms, fingerprint
        )
        for shard_id in shard_ids
    }


def validate_sharded(
    protocol: str,
    config: ExperimentConfig,
    workers: int,
    num_shards: Optional[int] = None,
) -> ShardMap:
    """Check a sharded run's shape; return the shard map it resolves to.

    Raises :class:`~repro.errors.ConfigError` with an actionable message on
    any mismatch (unsupported protocol/topology/plane, worker count that
    does not divide the shard map, population too small to split).
    """
    if protocol not in SHARDABLE_PROTOCOLS:
        raise ConfigError(
            f"sharded execution (workers > 1) supports protocols "
            f"{list(SHARDABLE_PROTOCOLS)}; {protocol!r} has no locality "
            f"partition to shard along -- rerun with --workers 1"
        )
    if config.topology != "clustered":
        raise ConfigError(
            "sharded execution needs the clustered topology (localities are "
            "the shard unit); rerun with --workers 1"
        )
    # Planes the sharded model does not carry yet.  Cells would build them
    # happily -- they go through the same assembly as any world -- but
    # wrongly: the aggregate open-loop rate once per shard is num_shards
    # times the load, and swarming / bandwidth need cross-shard chunk
    # sources and uplinks the bus does not model (parked in ROADMAP).
    # The schedule kinds that act on those planes (``RegionalSurge``,
    # ``SeederDeathSpec``) need no check of their own: without their plane
    # they are inert, here as in any world.
    unsharded = [
        plane
        for plane, on in (
            ("open-loop workload (openloop_rate_qps > 0)", config.openloop_rate_qps > 0),
            ("swarming transfers (swarming)", config.swarming),
            ("bandwidth model (bandwidth_kbps > 0)", config.bandwidth_kbps > 0),
        )
        if on
    ]
    if unsharded:
        raise ConfigError(
            f"sharded execution (workers > 1) does not carry these planes "
            f"yet: {', '.join(unsharded)}; rerun with --workers 1"
        )
    resolved = num_shards if num_shards is not None else default_num_shards(config)
    # ShardMap validates shard/locality divisibility with its own errors.
    shard_map = ShardMap(resolved, config.num_localities, config.num_websites)
    check_workers(workers, resolved)
    if config.population < resolved:
        raise ConfigError(
            f"population {config.population} cannot be split over "
            f"{resolved} shards; raise population or lower num_shards"
        )
    seeds_per_shard = config.num_websites * shard_map.localities_per_shard
    min_identities = _split(config.num_identities, resolved, resolved - 1)
    if seeds_per_shard > min_identities:
        raise ConfigError(
            f"per-shard identity pool ({min_identities}) smaller than the "
            f"per-shard seed population ({seeds_per_shard}); raise "
            f"population or shrink num_websites x num_localities"
        )
    return shard_map


def run_sharded_experiment(
    protocol: str,
    config: Optional[ExperimentConfig] = None,
    seed: int = 0,
    workers: int = 1,
    num_shards: Optional[int] = None,
    window_ms: Optional[float] = None,
    fingerprint: bool = False,
) -> ExperimentResult:
    """Run one experiment on the sharded engine and merge the results.

    Args:
        protocol: must be in :data:`SHARDABLE_PROTOCOLS`.
        config: experiment parameters (defaults to paper Table 1).
        seed: master RNG seed; shard ``s`` derives its own stream space
            from ``derive_seed(seed, "shard-s")``.
        workers: worker processes; must divide the shard count.  1 runs
            every shard in-process (no IPC, same results by construction).
        num_shards: shard count (default: one per locality, folded to fit
            the packed address space of :data:`repro.net.shardnet.MAX_SHARDS`).
        window_ms: conservative window (default: latency_max / 2).
        fingerprint: also compute per-shard SHA-256 stream fingerprints
            (slows the run; used by the invariance tests).
    """
    config = config or ExperimentConfig()
    shard_map = validate_sharded(protocol, config, workers, num_shards)
    window = window_ms if window_ms is not None else default_window_ms(config)
    payloads = run_windows_parallel(
        partial(_build_cells, config, seed, shard_map, window, fingerprint),
        shard_map.num_shards,
        workers,
        config.duration_ms,
        window,
    )
    return merge_shard_results(
        protocol, config, seed, payloads, workers, shard_map.num_shards, window
    )


def merge_records(shards: List[RecordColumns]) -> MetricsCollector:
    """One collector holding every shard's records in full sort order.

    The order is that of the column tuples -- time first, then website,
    object index, locality, outcome code, ... -- which is the order
    ``QueryRecord`` rows sort in.  A shard records in time order with ties
    in any order, so merging the shard streams and sorting each run of
    equal times is that full sort, without a tuple per query held at once.
    """
    metrics = MetricsCollector()
    streams = [zip(*shard.columns()) for shard in shards]
    for __, tied in groupby(heapq.merge(*streams), key=itemgetter(0)):
        for time, website, index, locality, code, lookup, transfer, hops in sorted(
            tied
        ):
            metrics.record(
                time,
                (website, index),
                locality,
                OUTCOME_NAMES[code],
                lookup,
                transfer,
                hops,
            )
    return metrics


def _fold(total: Dict[str, Any], part: Dict[str, Any]) -> None:
    """Fold one shard's totals into *total*: counts add, per-directory
    lists concatenate, maps (per message kind; per address or petal,
    disjoint across shards) merge key by key, and the one high-water mark
    takes the maximum."""
    for key, value in part.items():
        if isinstance(value, dict):
            _fold(total.setdefault(key, {}), value)
        elif key == "peak_queue_depth":
            total[key] = max(total.get(key, 0), value)
        elif key in total:
            total[key] = total[key] + value
        else:
            total[key] = value


def merge_shard_results(
    protocol: str,
    config: ExperimentConfig,
    seed: int,
    payloads: Dict[int, Dict[str, Any]],
    workers: int,
    num_shards: int,
    window_ms: float,
) -> ExperimentResult:
    """Fold per-shard payloads into one :class:`ExperimentResult`.

    Query records are merged in full sort order (:func:`merge_records`),
    so the merged metrics are independent of shard iteration order and
    worker count.
    """
    ordered = [payloads[sid] for sid in sorted(payloads)]
    totals: Dict[str, Any] = {}
    for payload in ordered:
        _fold(totals, payload["totals"])
    totals["extra"]["sharded"] = {
        "num_shards": num_shards,
        "workers": workers,
        "window_ms": window_ms,
        "bus_entries": sum(p["bus_entries_out"] for p in ordered),
        "peak_pending_events": max(p["peak_pending_events"] for p in ordered),
        "events_per_shard": {
            str(p["shard_id"]): p["totals"]["events_executed"] for p in ordered
        },
        "fingerprints": {str(p["shard_id"]): p["fingerprint"] for p in ordered},
    }
    return ExperimentResult.from_metrics(
        protocol=protocol,
        seed=seed,
        population=config.population,
        duration_hours=config.duration_hours,
        metrics=merge_records([payload["records"] for payload in ordered]),
        **totals,
    )
