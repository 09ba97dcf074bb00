"""Experiment configuration: the paper's Table 1, parameter for parameter.

===========================  =======================  =====================
Paper parameter (Table 1)    Field                    Paper value
===========================  =======================  =====================
Latency (ms)                 latency_min_ms/max_ms    10-500
Nb of localities (k)         num_localities           6
Nb of websites (|W|)         num_websites             100
Mean population size (P)     population               2000/3000/4000/5000
Total network size           peer_pool_factor         P x 1.3
Mean uptime of a peer (m)    mean_uptime_min          60 min
Nb of objects/website        objects_per_website      500
Query rate at a peer         query_interval_min       1 query / 6 min
Push threshold               push_threshold           0.5
Gossip/keepalive period      gossip_period_min        1 hour
(active websites)            num_active_websites      6
(experiment length)          duration_hours           24 h
===========================  =======================  =====================

:meth:`ExperimentConfig.paper` returns the full-scale configuration;
:meth:`ExperimentConfig.scaled` returns a proportionally reduced one that
exercises identical code paths in seconds (used by tests and the default
benchmark runs; ``REPRO_SCALE=full`` switches the benches to paper scale).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple, Union

from repro.errors import ConfigError

if TYPE_CHECKING:
    from repro.net.faults import FaultSpec
    from repro.workload.churn import ChurnSurgeSpec
    from repro.workload.openloop import RegionalSurge

    #: The kinds ``ExperimentConfig.fault_schedule`` accepts: what the
    #: fault controller executes, plus the two kinds a workload executes.
    #: A name for type checkers only, so a config loads no plane's module.
    ScheduleSpec = Union[FaultSpec, ChurnSurgeSpec, RegionalSurge]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that defines one simulation run (see module docstring).

    The CDN systems read this object as their ``params``; the values
    they need in milliseconds (``query_interval_ms``, ``gossip_period_ms``,
    which also paces keepalives, and the D-ring's
    :class:`~repro.dht.ring.RingParams`) are derived once per system, in
    :class:`~repro.cdn.base.CdnSystem`.

    Implementation knobs beyond Table 1:

    Attributes:
        chord_maintenance_s: period of the combined stabilization tick.
        topology: ``"clustered"`` (the default, locality structure present)
            or ``"uniform"`` (no structure -- the locality ablation).
        directory_load_limit / max_instances: PetalUp-CDN's split knobs:
            members per directory instance before a split, and the most
            instances per petal (PetalUp's ``2**m``); None / 1 = plain
            Flower-CDN.
        directory_collaboration: whether directory peers of the same
            website answer each other's misses (section 3.2 "may
            collaborate").
        peer_cache_capacity: per-peer cache size in objects; ``None`` is
            the paper's unbounded assumption, a number enables LRU
            replacement (the cache-policy extension the paper scopes out).
        rpc_retries: retry budget of directory-facing RPCs; 0 restores the
            seed's single-shot behaviour.
        directory_replication_k: warm-failover replication degree -- each
            directory replicates its versioned state to this many D-ring
            successors plus one in-petal heir (0 = off, the default, which
            keeps runs bit-identical to the non-replicated build).
        search_keywords: keyword-space size of the optional search
            extension (paper section 7); > 0 installs a
            :class:`~repro.cdn.flower.search.KeywordSearchEngine` on
            Flower-family systems (0 = off, the default -- required for
            golden-stream compatibility).
        search_probe_period_s: period of the synthetic search-probe
            workload driving the availability experiments (0 = no
            probes; needs ``search_keywords > 0``).
        fault_schedule: everything the run is subjected to, one tuple of
            frozen specs (:data:`ScheduleSpec`), each kind defined beside
            the thing it acts on: the network faults and crash campaigns
            of :mod:`repro.net.faults`
            (:class:`~repro.net.faults.UniformLossSpec`,
            :class:`~repro.net.faults.BurstyLossSpec`,
            :class:`~repro.net.faults.PartitionSpec`,
            :class:`~repro.net.faults.LatencySpikeSpec`,
            :class:`~repro.net.faults.MassFailureSpec`,
            :class:`~repro.net.faults.SeederDeathSpec`), bursts of extra
            arrivals (:class:`~repro.workload.churn.ChurnSurgeSpec`) and
            open-loop flash crowds
            (:class:`~repro.workload.openloop.RegionalSurge`, inert
            without an open loop).  Installed in one place,
            :func:`~repro.experiments.runner.assemble_world`, on the
            dedicated ``faults`` / ``chaos`` RNG streams; a chaos plan is
            a tuple appended here.  Empty = nothing injected: only a dead
            destination loses a message.
        openloop_rate_qps: aggregate open-loop arrival rate (queries per
            second across the whole system) of the overload workload
            (:mod:`repro.workload.openloop`).  0 = off, the default: the
            closed-loop per-peer query process of Table 1 is the only
            traffic and runs stay bit-identical to the goldens.
        openloop_diurnal_amplitude: relative amplitude in [0, 1) of the
            sinusoidal diurnal modulation of the open-loop rate (one
            cycle a day).
        openloop_surges: regionally-correlated flash crowds riding the
            open-loop process -- a tuple of plain-number tuples
            ``(start_ms, ramp_ms, peak_multiplier, decay_ms, locality,
            hot_website, hot_probability)`` (``locality``/``hot_website``
            of -1 mean "all"/"none").  These are part of the arrival
            profile the thinning peak is computed from *before* the first
            candidate is drawn; the same surge as a ``RegionalSurge`` in
            ``fault_schedule`` joins after the process has started, and
            the two draw different streams.
        directory_queue_limit: bounded per-directory admission queue
            depth (0 = off -- no admission control, the paper's
            unbounded behaviour).
        directory_service_ms: virtual service time per admitted
            directory request (read only with a queue limit).
        overload_shedding: replica-aware PetalUp splits and direct
            member shedding to the warm ring successor (off = the
            paper's empty-view split + instance scan).
        redirect_hints: queue-aware redirect hints -- directories
            piggyback admission-queue depths on replies/keepalives and
            gossip a per-petal load vector over the replication channel;
            clients pre-route to the least-loaded live instance before
            being shed (needs ``directory_queue_limit > 0``; off = no
            hint computed or shipped, bit-identical runs).
        rebalance: shedding-aware content rebalancing -- each directory
            keeps windowed per-key fetch counts and, once overload
            pressure shows (sheds or a non-empty queue), spills its
            top-Gini-contributing hot keys to its least-loaded members
            (``flower.rebalance`` -> ``flower.fetch`` -> push), so later
            fetches fan out.  Off = no counts kept, no spill traffic.
        rebalance_cooldown_rounds: sweep rounds a directory stays quiet
            after one spill pass (bounds churn).
        rebalance_budget_kb: per-spill-pass byte budget; each spilled key
            costs its modeled size, or ``object_mean_kb`` without a size
            model.
        rebalance_max_keys: most keys spilled in one pass.
        swarming: chunked multi-source transfers with per-chunk failover
            (:mod:`repro.cdn.swarm`).  Off = the paper's atomic-fetch
            model, bit-identical to the pre-swarming goldens.
        swarm_parallel: most concurrent chunk fetches per transfer.
        swarm_sources: most distinct sources a transfer asks manifests of.
        swarm_resume: keep completed chunks across source failures and
            re-request only what is missing.  Off = the cold baseline:
            any source failure discards all progress and refetches the
            whole object from the origin.
        swarm_replicate: petal members each full-object holder places
            chunk replicas on (0 = no placement).
        object_mean_kb / object_max_kb / swarm_chunk_kb: the seeded
            bounded-Pareto object-size model
            (:mod:`repro.workload.objectsize`); only built when
            ``swarming`` is on.
        bandwidth_kbps: per-peer upload capacity of the optional
            fair-share bandwidth model (:mod:`repro.net.bandwidth`).
            0 = off, the default: links stay latency-only.
        bandwidth_slow_fraction / bandwidth_slow_factor: deterministic
            fraction of peers whose uplink is ``capacity / factor``.
    """

    population: int = 3000
    peer_pool_factor: float = 1.3
    mean_uptime_min: float = 60.0
    duration_hours: float = 24.0
    num_websites: int = 100
    objects_per_website: int = 500
    num_active_websites: int = 6
    num_localities: int = 6
    # No run sets the marked fields, but they stay fields: they are the
    # paper's parameters (Table 1's latency range, query rate and push
    # threshold; the Zipf skew of Breslau et al.), the first things a
    # fidelity study varies.
    latency_min_ms: float = 10.0  # paper parameter
    latency_max_ms: float = 500.0  # paper parameter
    query_interval_min: float = 6.0  # paper parameter
    gossip_period_min: float = 60.0
    push_threshold: float = 0.5  # paper parameter
    zipf_exponent: float = 0.8  # paper parameter
    chord_maintenance_s: float = 120.0
    topology: str = "clustered"
    directory_load_limit: Optional[int] = None
    max_instances: int = 1
    directory_collaboration: bool = False
    peer_cache_capacity: Optional[int] = None
    rpc_retries: int = 2
    directory_replication_k: int = 0
    search_keywords: int = 0
    search_probe_period_s: float = 0.0
    fault_schedule: Tuple[ScheduleSpec, ...] = ()
    openloop_rate_qps: float = 0.0
    openloop_diurnal_amplitude: float = 0.0
    openloop_surges: tuple = ()
    directory_queue_limit: int = 0
    directory_service_ms: float = 40.0
    overload_shedding: bool = False
    swarming: bool = False
    swarm_parallel: int = 4
    swarm_sources: int = 4
    swarm_resume: bool = True
    swarm_replicate: int = 0
    swarm_chunk_kb: int = 64
    object_mean_kb: float = 64.0
    object_max_kb: float = 4096.0
    bandwidth_kbps: float = 0.0
    bandwidth_slow_fraction: float = 0.0
    bandwidth_slow_factor: float = 8.0
    redirect_hints: bool = False
    rebalance: bool = False
    rebalance_cooldown_rounds: int = 2
    rebalance_budget_kb: float = 1024.0
    rebalance_max_keys: int = 4

    def __post_init__(self) -> None:
        if self.query_interval_min <= 0 or self.gossip_period_min <= 0:
            raise ConfigError("periods must be positive")
        if self.push_threshold <= 0:
            raise ConfigError("push_threshold must be positive")
        if self.max_instances < 1:
            raise ConfigError("max_instances must be >= 1")
        if self.directory_load_limit is not None and self.directory_load_limit < 1:
            raise ConfigError("directory_load_limit must be >= 1 or None")
        if self.peer_cache_capacity is not None and self.peer_cache_capacity < 1:
            raise ConfigError("peer_cache_capacity must be >= 1 or None")
        if self.rpc_retries < 0:
            raise ConfigError("rpc_retries must be >= 0")
        if self.directory_replication_k < 0:
            raise ConfigError("directory_replication_k must be >= 0")
        if self.search_keywords < 0:
            raise ConfigError("search_keywords must be >= 0")
        if self.search_probe_period_s < 0:
            raise ConfigError("search_probe_period_s must be >= 0")
        if self.search_probe_period_s > 0 and self.search_keywords < 1:
            raise ConfigError("search probes need search_keywords >= 1")
        if not isinstance(self.fault_schedule, tuple):
            # Keep the config hashable (benchmark caches key on it).
            object.__setattr__(self, "fault_schedule", tuple(self.fault_schedule))
        if self.openloop_rate_qps < 0:
            raise ConfigError("openloop_rate_qps must be >= 0")
        if not 0.0 <= self.openloop_diurnal_amplitude < 1.0:
            raise ConfigError("openloop_diurnal_amplitude must be in [0, 1)")
        if not isinstance(self.openloop_surges, tuple):
            object.__setattr__(
                self,
                "openloop_surges",
                tuple(tuple(surge) for surge in self.openloop_surges),
            )
        for surge in self.openloop_surges:
            if len(surge) != 7:
                raise ConfigError(
                    "openloop_surges entries are (start_ms, ramp_ms, "
                    "peak_multiplier, decay_ms, locality, hot_website, "
                    "hot_probability)"
                )
        if self.directory_queue_limit < 0:
            raise ConfigError("directory_queue_limit must be >= 0")
        if self.directory_service_ms <= 0:
            raise ConfigError("directory_service_ms must be positive")
        if self.redirect_hints and self.directory_queue_limit < 1:
            raise ConfigError("redirect_hints need directory_queue_limit >= 1")
        if self.rebalance_cooldown_rounds < 0:
            raise ConfigError("rebalance_cooldown_rounds must be >= 0")
        if self.rebalance_budget_kb <= 0:
            raise ConfigError("rebalance_budget_kb must be positive")
        if self.rebalance_max_keys < 1:
            raise ConfigError("rebalance_max_keys must be >= 1")
        if self.swarm_parallel < 1:
            raise ConfigError("swarm_parallel must be >= 1")
        if self.swarm_sources < 1:
            raise ConfigError("swarm_sources must be >= 1")
        if self.swarm_replicate < 0:
            raise ConfigError("swarm_replicate must be >= 0")
        if self.swarm_chunk_kb < 1:
            raise ConfigError("swarm_chunk_kb must be >= 1")
        if self.object_mean_kb <= 0:
            raise ConfigError("object_mean_kb must be positive")
        if self.object_max_kb < self.object_mean_kb:
            raise ConfigError("object_max_kb must be >= object_mean_kb")
        if self.bandwidth_kbps < 0:
            raise ConfigError("bandwidth_kbps must be >= 0")
        if not 0.0 <= self.bandwidth_slow_fraction <= 1.0:
            raise ConfigError("bandwidth_slow_fraction must be in [0, 1]")
        if self.bandwidth_slow_factor < 1.0:
            raise ConfigError("bandwidth_slow_factor must be >= 1")
        if self.population < 1:
            raise ConfigError("population must be positive")
        if self.peer_pool_factor < 1.0:
            raise ConfigError("peer_pool_factor must be >= 1 (pool >= population)")
        if self.duration_hours <= 0 or self.mean_uptime_min <= 0:
            raise ConfigError("durations must be positive")
        if self.topology not in ("clustered", "uniform"):
            raise ConfigError(f"unknown topology {self.topology!r}")
        if self.num_active_websites > self.num_websites:
            raise ConfigError("more active websites than websites")
        seeds = self.num_websites * self.num_localities
        if seeds > self.num_identities:
            raise ConfigError(
                f"identity pool ({self.num_identities}) smaller than the "
                f"initial directory population ({seeds}); raise population "
                f"or shrink num_websites x num_localities"
            )

    # ------------------------------------------------------------- derived
    @property
    def num_identities(self) -> int:
        """Total network size: the identity pool (paper: P x 1.3)."""
        return int(round(self.population * self.peer_pool_factor))

    @property
    def duration_ms(self) -> float:
        return self.duration_hours * 3_600_000.0

    # ------------------------------------------------------------ presets
    @classmethod
    def paper(cls, population: int = 3000, **overrides) -> "ExperimentConfig":
        """The paper's full Table 1 setup at the given population."""
        return cls(population=population, **overrides)

    @classmethod
    def scaled(
        cls,
        population: int = 240,
        duration_hours: float = 6.0,
        **overrides,
    ) -> "ExperimentConfig":
        """A reduced-scale setup exercising the same code paths.

        Websites, localities and catalog shrink proportionally so petal
        dynamics (peers per petal, directory load) stay comparable; protocol
        periods are untouched.
        """
        defaults = dict(
            population=population,
            duration_hours=duration_hours,
            num_websites=12,
            num_active_websites=3,
            num_localities=3,
            objects_per_website=100,
            chord_maintenance_s=60.0,
        )
        defaults.update(overrides)
        return cls(**defaults)

    def replace(self, **overrides) -> "ExperimentConfig":
        """A copy with some fields overridden."""
        return dataclasses.replace(self, **overrides)
