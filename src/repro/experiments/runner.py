"""World construction and experiment execution.

:func:`build_world` assembles one complete simulated deployment --
simulator, latency topology, landmark binner, origin servers, CDN system,
churn process -- exactly as section 6.1 describes; :func:`run_experiment`
runs it to the horizon and :func:`summarize` turns the finished world into
an :class:`~repro.experiments.results.ExperimentResult`.

One path per job: every run door (plain, recovery, chaos, each shard of a
sharded run) populates its world through :func:`assemble_world` and reports
through :func:`summarize` / :func:`world_totals`, so a plane wired or
reported there is wired and reported everywhere.

Determinism: the whole run is a pure function of ``(protocol, config,
seed)``; every stochastic choice draws from a named stream of the
simulator's RNG registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Type

from repro.cdn.base import CdnSystem
from repro.errors import ConfigError
from repro.experiments.config import ExperimentConfig
from repro.net.landmarks import LandmarkBinner
from repro.net.topology import ClusteredTopology, Topology, UniformRandomTopology
from repro.net.transport import Network, NetworkNode
from repro.sim.clock import minutes, seconds
from repro.sim.engine import Simulator
from repro.workload.catalog import Catalog
from repro.workload.churn import ChurnModel, ChurnSurgeSpec

if TYPE_CHECKING:
    from repro.cdn.flower.search import SearchProbeWorkload
    from repro.experiments.results import ExperimentResult
    from repro.net.faults import FaultController
    from repro.workload.openloop import OpenLoopWorkload

#: The protocols a world can run; :func:`_system_class` resolves each.
PROTOCOLS = ("flower", "petalup", "squirrel", "squirrel-home")


def _system_class(protocol: str) -> Type[CdnSystem]:
    """The system class of *protocol*.

    Imported here, when chosen, so a world loads the code of its own
    protocol only: a Squirrel run never compiles Flower.
    """
    if protocol == "flower":
        from repro.cdn.flower.system import FlowerSystem

        return FlowerSystem
    if protocol == "petalup":
        from repro.cdn.petalup.system import PetalUpSystem

        return PetalUpSystem
    if protocol == "squirrel":
        from repro.cdn.squirrel.system import SquirrelSystem

        return SquirrelSystem
    if protocol == "squirrel-home":
        from repro.cdn.squirrel.homestore import HomeStoreSquirrelSystem

        return HomeStoreSquirrelSystem
    raise ConfigError(
        f"unknown protocol {protocol!r}; choose from {sorted(PROTOCOLS)}"
    )


@dataclass
class World:
    """One fully assembled deployment, ready to run."""

    sim: Simulator
    topology: Topology
    network: Network
    binner: LandmarkBinner
    catalog: Catalog
    system: CdnSystem
    churn: ChurnModel
    config: ExperimentConfig
    faults: Optional[FaultController] = None
    search_probes: Optional[SearchProbeWorkload] = None
    openloop: Optional[OpenLoopWorkload] = None

    def run(self, until_ms: Optional[float] = None) -> None:
        """Advance the simulation (defaults to the configured horizon)."""
        self.sim.run(until=until_ms if until_ms is not None else self.config.duration_ms)


def _make_topology(config: ExperimentConfig, sim: Simulator) -> Topology:
    if config.topology == "clustered":
        return ClusteredTopology(
            sim.rng("topology"),
            num_clusters=config.num_localities,
            latency_min_ms=config.latency_min_ms,
            latency_max_ms=config.latency_max_ms,
        )
    return UniformRandomTopology(
        seed=sim.seed,
        latency_min_ms=config.latency_min_ms,
        latency_max_ms=config.latency_max_ms,
    )


def _make_binner(
    config: ExperimentConfig,
    topology: Topology,
    network: Network,
) -> LandmarkBinner:
    if isinstance(topology, ClusteredTopology):
        return LandmarkBinner.for_clustered(topology)
    # Structureless topology: host k landmark nodes and bin against them
    # (the ablation case -- the partition is consistent but carries no
    # latency information).
    landmarks = [NetworkNode(network) for __ in range(config.num_localities)]
    return LandmarkBinner.for_addresses(
        network.topology, [node.address for node in landmarks]
    )


def assemble_world(
    config: ExperimentConfig,
    seed: int,
    sim: Simulator,
    network: Network,
    binner: LandmarkBinner,
    make_system: Callable[[Catalog], CdnSystem],
    num_identities: Optional[int] = None,
    population: Optional[int] = None,
) -> World:
    """Populate a fabric -- simulator, network, binner -- into a :class:`World`.

    Everything a deployment needs beyond its fabric is wired here and only
    here: catalog, CDN system, object sizes, bandwidth, the
    search engine and its probes, the initial population, churn, the
    open-loop workload, and every entry of ``config.fault_schedule`` --
    on the fault controller, the churn process or the open loop, by kind.
    Each plane's module is imported in the branch that builds it, so a
    world whose plane is off never loads that plane's code.

    Args:
        seed: the run's master seed.  Object sizes and uplink classes are
            keyed on it rather than on ``sim.seed``, which a shard derives.
        make_system: ``catalog -> CdnSystem``; the caller knows the system
            class and what else its constructor takes.
        num_identities / population: the churn process's identity pool and
            target population (default: the config's; a shard passes its
            share of each).
    """
    catalog = Catalog(
        num_websites=config.num_websites,
        objects_per_website=config.objects_per_website,
        num_active_websites=config.num_active_websites,
    )
    system = make_system(catalog)
    if config.swarming:
        # Chunked swarming transfers: attach the seeded object-size model
        # (shared with the origin servers for byte accounting) and, when
        # configured, the fair-share bandwidth model.  Both are strictly
        # opt-in: off, no model is built and runs stay bit-identical to
        # the atomic-fetch goldens.
        from repro.workload.objectsize import ObjectSizeModel

        system.install_sizes(
            ObjectSizeModel(
                mean_kb=config.object_mean_kb,
                max_kb=config.object_max_kb,
                chunk_kb=config.swarm_chunk_kb,
                seed=seed,
            )
        )
    if config.bandwidth_kbps > 0.0:
        from repro.net.bandwidth import BandwidthModel

        network.install_bandwidth(BandwidthModel(sim, config, seed))
    search_probes: Optional[SearchProbeWorkload] = None
    if config.search_keywords > 0:
        from repro.cdn.flower.search import (
            KeywordSearchEngine,
            KeywordSpace,
            SearchProbeWorkload,
        )
        from repro.cdn.flower.system import FlowerSystem

        if isinstance(system, FlowerSystem):
            # Keyword-search extension (section 5.4).  The probe workload
            # draws from a dedicated stream and so never perturbs the
            # protocol's own sequences.
            system.search_engine = KeywordSearchEngine(
                KeywordSpace(num_keywords=config.search_keywords)
            )
            if config.search_probe_period_s > 0:
                search_probes = SearchProbeWorkload(
                    sim,
                    system,
                    period_ms=seconds(config.search_probe_period_s),
                    rng=sim.rng("search_probes"),
                )
    system.setup_initial_population()
    churn = ChurnModel(
        sim,
        sim.rng("churn"),
        num_identities=(
            config.num_identities if num_identities is None else num_identities
        ),
        mean_uptime_ms=minutes(config.mean_uptime_min),
        target_population=config.population if population is None else population,
        on_arrival=system.on_arrival,
        on_departure=system.on_departure,
    )
    for identity in system.seed_identities:
        churn.seed_online(identity)
    churn.start()
    openloop: Optional[OpenLoopWorkload] = None
    if config.openloop_rate_qps > 0:
        # Open-loop overload traffic (own "openloop" RNG stream).  A rate
        # of zero builds nothing: no events, no draws, golden streams
        # untouched.
        from repro.workload.openloop import ArrivalProfile, OpenLoopWorkload

        openloop = OpenLoopWorkload(sim, system, ArrivalProfile.from_config(config))
        openloop.start()
    faults: Optional[FaultController] = None
    if config.fault_schedule:
        from repro.net.faults import FaultController
        from repro.workload.openloop import RegionalSurge

        # The one place a schedule is installed: network faults and crash
        # campaigns go to the controller, the two workload kinds to the
        # workload they act on.  The controller draws from the dedicated
        # "faults" stream (uniform loss from "loss") and a surge's website
        # pin from "chaos", so the injection decisions themselves perturb
        # no other component's random sequence and fault runs stay
        # comparable with fault-free runs of the same seed.
        faults = FaultController(
            sim, network, rng=sim.rng("faults"), locality_of=binner.locality_of
        )
        workload_kinds = (ChurnSurgeSpec, RegionalSurge)
        faults.apply(
            spec
            for spec in config.fault_schedule
            if not isinstance(spec, workload_kinds)
        )
        for spec in config.fault_schedule:
            if isinstance(spec, ChurnSurgeSpec):
                churn.schedule_surge(spec, sim.rng("chaos"), system.offer_website)
            elif isinstance(spec, RegionalSurge) and openloop is not None:
                # Joins after ``start()``, through ``add_surge``, not
                # through the ``ArrivalProfile``: a surge in the profile
                # raises the thinning peak before the first candidate is
                # drawn and moves the whole open-loop stream.  Without an
                # open loop there is nothing to overload: inert, like a
                # seeder death without swarming.
                openloop.add_surge(spec)
    return World(
        sim=sim,
        topology=network.topology,
        network=network,
        binner=binner,
        catalog=catalog,
        system=system,
        churn=churn,
        config=config,
        faults=faults,
        search_probes=search_probes,
        openloop=openloop,
    )


def build_world(
    protocol: str,
    config: ExperimentConfig,
    seed: int = 0,
) -> World:
    """Assemble a deployment without running it (examples & tests use this
    to poke at intermediate states)."""
    system_cls = _system_class(protocol)
    if protocol == "petalup":
        # PetalUp-CDN needs its split knobs on; fill in the defaults when
        # the caller did not choose them explicitly.
        from repro.cdn.petalup.system import DEFAULT_LOAD_LIMIT, DEFAULT_MAX_INSTANCES

        if config.directory_load_limit is None:
            config = config.replace(directory_load_limit=DEFAULT_LOAD_LIMIT)
        if config.max_instances < 2:
            config = config.replace(max_instances=DEFAULT_MAX_INSTANCES)
    sim = Simulator(seed=seed)
    topology = _make_topology(config, sim)
    network = Network(
        sim, topology, default_timeout_ms=3.0 * config.latency_max_ms
    )
    binner = _make_binner(config, topology, network)
    return assemble_world(
        config,
        seed,
        sim,
        network,
        binner,
        lambda catalog: system_cls(sim, network, binner, catalog, config),
    )


def world_totals(world: World) -> Dict[str, Any]:
    """What a finished world counted, as :class:`ExperimentResult` fields.

    ``extra`` is the standard block, each plane's keys present exactly
    when that plane exists in the world -- written once, so every run door
    reports the same keys for the same config.  A sharded run takes these
    from every cell and folds them (``merge_shard_results``).
    """
    system = world.system
    extra: Dict[str, Any] = {
        "online_peers": system.online_peers,
        "message_counts": dict(world.network.kind_counts),
        "drop_counts": dict(world.network.drop_counts),
        **system.extra_totals(openloop=world.openloop is not None),
    }
    if system.sizes is not None:
        from repro.cdn.flower.stats import collect_swarm_stats

        extra["swarm"] = collect_swarm_stats(system).to_dict()
    if world.openloop is not None:
        extra["openloop"] = dict(world.openloop.stats)
    if world.faults is not None:
        extra["fault_stats"] = dict(world.faults.stats)
    return {
        "events_executed": world.sim.events_executed,
        "messages_sent": world.network.messages_sent,
        "arrivals": world.churn.arrivals,
        "departures": world.churn.departures,
        "extra": extra,
    }


def summarize(
    world: World, protocol: str, seed: int, **own_extra: Any
) -> ExperimentResult:
    """Summarise a finished world; *own_extra* adds the caller's own keys
    (``availability``, ``chaos_plan``, ...) to the standard ``extra``."""
    from repro.experiments.results import ExperimentResult

    totals = world_totals(world)
    totals["extra"].update(own_extra)
    return ExperimentResult.from_metrics(
        protocol=protocol,
        seed=seed,
        population=world.config.population,
        duration_hours=world.config.duration_hours,
        metrics=world.system.metrics,
        **totals,
    )


def run_experiment(
    protocol: str,
    config: Optional[ExperimentConfig] = None,
    seed: int = 0,
    workers: int = 1,
) -> ExperimentResult:
    """Run one full experiment and summarise it.

    Args:
        protocol: "flower", "petalup" or "squirrel".
        config: experiment parameters (defaults to the paper's Table 1 at
            P = 3000 -- expect a multi-minute run; tests and examples pass
            :meth:`ExperimentConfig.scaled`).
        seed: master RNG seed.
        workers: worker processes.  1 (the default) runs the legacy
            single-simulator path, bit-identical to the golden traces;
            > 1 delegates to the sharded engine
            (:func:`repro.experiments.sharded.run_sharded_experiment`),
            which partitions the world by locality and is its own
            deterministic model (invariant in the worker count, but not
            stream-identical to the single-simulator build).
    """
    config = config or ExperimentConfig()
    if workers != 1:
        # Local import: the sharded engine depends on this module's siblings.
        from repro.experiments.sharded import run_sharded_experiment

        return run_sharded_experiment(protocol, config, seed=seed, workers=workers)
    world = build_world(protocol, config, seed)
    world.run()
    return summarize(world, protocol, seed)


def _run_recovery(
    world: World,
    protocol: str,
    seed: int,
    fault_start_ms: float,
    fault_end_ms: float,
    window_ms: Optional[float],
    epsilon: float,
    tracker=None,
):
    """Run *world* through its fault and return ``(result, recovery)`` --
    the one body of both recovery runners; a directory *tracker* attached
    to the world beforehand adds its blocks to ``extra``."""
    from repro.metrics.recovery import RecoveryReport, track_issued_queries

    issued = track_issued_queries(world.sim)
    world.run()
    records = world.system.metrics.records
    recovery = RecoveryReport(
        records,
        fault_start_ms=fault_start_ms,
        fault_end_ms=fault_end_ms,
        horizon_ms=world.config.duration_ms,
        window_ms=window_ms if window_ms is not None else minutes(30),
        issued_times=issued,
        epsilon=epsilon,
    )
    own_extra = {"availability": recovery.availability}
    if tracker is not None:
        own_extra["directory_recovery"] = tracker.summary(records)
        own_extra["replication"] = world.system.stats().replication.to_dict()
    return summarize(world, protocol, seed, **own_extra), recovery


def run_recovery_experiment(
    protocol: str,
    config: ExperimentConfig,
    fault_start_ms: float,
    fault_end_ms: float,
    seed: int = 0,
    window_ms: Optional[float] = None,
    epsilon: float = 0.05,
):
    """Run a fault experiment and measure how the protocol rides it out.

    The config's ``fault_schedule`` defines *what* is injected; the
    ``fault_start_ms`` / ``fault_end_ms`` pair tells the report which
    window to treat as the fault phase (e.g. partition start and heal).

    Returns:
        ``(result, recovery)`` -- the usual
        :class:`~repro.experiments.results.ExperimentResult` plus a
        :class:`~repro.metrics.recovery.RecoveryReport`.
    """
    world = build_world(protocol, config, seed)
    return _run_recovery(
        world, protocol, seed, fault_start_ms, fault_end_ms, window_ms, epsilon
    )


def run_directory_recovery_experiment(
    protocol: str,
    config: ExperimentConfig,
    fault_start_ms: float,
    fault_end_ms: float,
    seed: int = 0,
    window_ms: Optional[float] = None,
    epsilon: float = 0.05,
    localities: Optional[list] = None,
):
    """Like :func:`run_recovery_experiment`, plus directory-index metrics.

    Attaches a :class:`~repro.metrics.recovery.DirectoryRecoveryTracker`
    before the run, so the result's ``extra["directory_recovery"]`` block
    carries time-to-full-index, cold-window miss count and replica
    staleness at takeover -- the replica-aware metrics the warm-failover
    A/B (cold ``directory_replication_k = 0`` vs warm ``k >= 1``)
    compares.  Flower-family protocols only.

    Returns:
        ``(result, recovery, directory_recovery)`` -- the usual pair plus
        the tracker's :meth:`~repro.metrics.recovery.DirectoryRecoveryTracker.summary`
        dict.
    """
    from repro.cdn.flower.system import FlowerSystem
    from repro.metrics.recovery import DirectoryRecoveryTracker

    world = build_world(protocol, config, seed)
    if not isinstance(world.system, FlowerSystem):
        raise ConfigError(
            "directory recovery metrics need a Flower-family protocol"
        )
    tracker = DirectoryRecoveryTracker(
        world, fault_start_ms=fault_start_ms, localities=localities
    )
    result, recovery = _run_recovery(
        world, protocol, seed, fault_start_ms, fault_end_ms, window_ms, epsilon, tracker
    )
    return result, recovery, result.extra["directory_recovery"]
