"""Typed system-statistics facade (one entry point, one version).

Each extension used to grow its own loosely shaped reporting dict.
:func:`collect_system_stats` gathers them into frozen dataclasses under
a single versioned :class:`SystemStats`, reached through
``system.stats()``; each block's ``to_dict()`` keeps its dict shape, so
existing reports and benchmarks keep parsing.

``STATS_VERSION`` bumps whenever a field is added, renamed, or changes
meaning -- consumers that persist snapshots (the chaos bundles, the bench
JSON artifacts) can tell apart shapes without guessing.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from repro.types import Address

#: Version of the :class:`SystemStats` shape (see module docstring).
STATS_VERSION = 2


@dataclass(frozen=True)
class OverloadStats:
    """Admission-queue, shedding, hint, and rebalancing activity.

    All-zero / empty when the overload extension is off (no queue limit,
    no shedding, no open-loop traffic).  The per-directory and per-peer
    value lists feed the Gini computations of the cloud-heavy benchmark;
    ``instances`` maps ``"website:locality"`` to the number of live
    directory instances serving that petal, and the ``*_detail`` maps are
    keyed snapshots callers can diff for per-window shares.
    """

    queries_shed: int = 0
    members_shed: int = 0
    hint_hops: int = 0
    hint_hits: int = 0
    hint_stale: int = 0
    rebalance_spills: int = 0
    rebalance_adoptions: int = 0
    rebalance_kb: float = 0.0
    directories: int = 0
    peak_queue_depth: int = 0
    directory_loads: List[int] = field(default_factory=list)
    directory_queries: List[int] = field(default_factory=list)
    directory_sheds: List[int] = field(default_factory=list)
    directory_detail: Dict[Address, Dict[str, Any]] = field(default_factory=dict)
    content_fetches: List[int] = field(default_factory=list)
    content_detail: Dict[Address, Dict[str, Any]] = field(default_factory=dict)
    instances: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class ReplicationStats:
    """Directory-state replication activity.

    All-zero when ``directory_replication_k == 0`` (nothing runs).  Used by the
    recovery benchmarks and the chaos report's context block.
    """

    syncs: int = 0
    fulls: int = 0
    deltas: int = 0
    rejected: int = 0
    replicas_stored: int = 0
    replica_holders: int = 0
    provisional_directories: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class SwarmStats:
    """Chunked-transfer accounting (all zeros while swarming is off).

    ``bandwidth`` carries the bandwidth model's extra counters verbatim
    when one is installed; ``to_dict()`` merges them into the flat shape
    the swarm reports parse.
    """

    transfers_started: int = 0
    transfers_completed: int = 0
    transfers_degraded: int = 0
    transfers_failed: int = 0
    restarts: int = 0
    chunk_retries: int = 0
    p2p_bytes: float = 0.0
    origin_bytes: float = 0.0
    offload_fraction: float = 0.0
    bandwidth: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        stats = asdict(self)
        bandwidth = stats.pop("bandwidth")
        if bandwidth is not None:
            stats.update(bandwidth)
        return stats


@dataclass(frozen=True)
class SystemStats:
    """Everything a report needs about one system, in one snapshot."""

    overload: OverloadStats
    replication: ReplicationStats
    swarm: SwarmStats
    version: int = STATS_VERSION


# ---------------------------------------------------------------- collectors
def collect_overload_stats(system) -> OverloadStats:
    """Gather the overload snapshot from a live :class:`FlowerSystem`."""
    directories = 0
    peak_queue_depth = 0
    directory_loads: List[int] = []
    directory_queries: List[int] = []
    directory_sheds: List[int] = []
    directory_detail: Dict[Address, Dict[str, Any]] = {}
    instances: Dict[str, int] = {}
    for (website, locality), slot in sorted(system._directory_registry.items()):
        live = 0
        for address in sorted(slot):
            peer = slot[address]
            d = peer.directory
            if not peer.alive or d is None:
                continue
            live += 1
            directories += 1
            directory_loads.append(d.load)
            directory_queries.append(d.queries_handled)
            directory_sheds.append(d.queries_shed)
            directory_detail[peer.address] = {
                "website": website,
                "locality": locality,
                "load": d.load,
                "queries": d.queries_handled,
                "sheds": d.queries_shed,
                "keys_rebalanced": d.keys_rebalanced,
            }
            if d.peak_queue_depth > peak_queue_depth:
                peak_queue_depth = d.peak_queue_depth
        if live:
            instances[f"{website}:{locality}"] = live
    content_fetches: List[int] = []
    content_detail: Dict[Address, Dict[str, Any]] = {}
    for peer in system.peers.values():
        if peer.alive and peer.directory is None:
            content_fetches.append(peer.fetches_served)
            content_detail[peer.address] = {
                "website": peer.website,
                "locality": peer.locality,
                "fetches": peer.fetches_served,
            }
    counted = system.sim.trace.counters
    return OverloadStats(
        queries_shed=counted["flower.query_shed"],
        members_shed=system.members_shed,
        hint_hops=counted["flower.hint_hop"],
        hint_hits=system.hint_hits,
        hint_stale=system.hint_stale,
        rebalance_spills=counted["flower.key_rebalanced"],
        rebalance_adoptions=counted["flower.key_adopted"],
        rebalance_kb=system.rebalance_kb,
        directories=directories,
        peak_queue_depth=peak_queue_depth,
        directory_loads=directory_loads,
        directory_queries=directory_queries,
        directory_sheds=directory_sheds,
        directory_detail=directory_detail,
        content_fetches=content_fetches,
        content_detail=content_detail,
        instances=instances,
    )


def collect_replication_stats(system) -> ReplicationStats:
    """Gather the replication snapshot from a live :class:`FlowerSystem`."""
    counters = {"syncs": 0, "fulls": 0, "deltas": 0, "rejected": 0}
    replicas_stored = 0
    replica_holders = 0
    provisional_directories = 0
    for peer in system.peers.values():
        if not peer.alive:
            continue
        stored = len(peer.replica_store)
        if stored:
            replicas_stored += stored
            replica_holders += 1
        if peer.directory is not None and peer.directory.provisional:
            provisional_directories += 1
        replicator = peer.service.replicator if peer.service is not None else None
        if replicator is not None:
            for key in counters:
                counters[key] += replicator.stats[key]
    return ReplicationStats(
        syncs=counters["syncs"],
        fulls=counters["fulls"],
        deltas=counters["deltas"],
        rejected=counters["rejected"],
        replicas_stored=replicas_stored,
        replica_holders=replica_holders,
        provisional_directories=provisional_directories,
    )


def collect_swarm_stats(system) -> SwarmStats:
    """Gather the swarm snapshot from a live :class:`CdnSystem`."""
    total_bytes = system.swarm_p2p_bytes + system.swarm_origin_bytes
    offload = system.swarm_p2p_bytes / total_bytes if total_bytes else 0.0
    bandwidth = system.network.bandwidth
    counted = system.sim.trace.counters
    return SwarmStats(
        transfers_started=counted["swarm.start"],
        transfers_completed=system.swarm_completed,
        transfers_degraded=counted["swarm.degraded"],
        transfers_failed=system.swarm_failed,
        restarts=counted["swarm.restart"],
        chunk_retries=counted["swarm.chunk_retry"],
        p2p_bytes=system.swarm_p2p_bytes,
        origin_bytes=system.swarm_origin_bytes,
        offload_fraction=offload,
        bandwidth=bandwidth.stats() if bandwidth is not None else None,
    )


def collect_system_stats(system) -> SystemStats:
    """The single entry point behind :meth:`FlowerSystem.stats`."""
    return SystemStats(
        overload=collect_overload_stats(system),
        replication=collect_replication_stats(system),
        swarm=collect_swarm_stats(system),
    )
