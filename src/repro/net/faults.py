"""Fault injection: bursty loss, partitions, latency spikes, crash campaigns.

The seed harness could only stress the protocols two ways -- i.i.d. uniform
message loss (:meth:`~repro.net.transport.Network.configure_loss`) and
independent crash churn.  Real overlay stress is *correlated*: routers fail
and take whole localities offline, congested links drop packets in bursts,
backbone cuts partition the network for minutes and then heal.  This module
provides those scenarios as schedulable, reproducible fault campaigns:

- **Gilbert-Elliott bursty loss** -- a two-state Markov chain per link
  (good/bad); the bad state drops with high probability, producing the
  loss *bursts* that defeat single-shot RPC failure detection;
- **network partitions** -- traffic crossing a locality (or explicit
  address-set) boundary is cut in both directions between a start and a
  heal time;
- **latency-degradation windows** -- a multiplier and/or additive spike on
  selected links for a while (congestion, route flaps);
- **mass-failure campaigns** -- crash a fraction of a locality's peers, or
  every directory peer, at a scheduled instant (correlated churn, the
  paper's "worst scenarios");
- **seeder deaths** -- crash the top chunk uploaders of the swarming plane
  at a scheduled instant, ranked at the strike.

Everything is driven by the deterministic simulation clock, and every
random draw comes from one dedicated RNG stream (``"faults"`` by default),
so a run with fault injection is exactly as reproducible as one without:
identical seeds produce identical trajectories, fault for fault.

Declarative specs (:class:`PartitionSpec` & friends) are hashable frozen
dataclasses so they can ride inside the frozen
:class:`~repro.experiments.config.ExperimentConfig`.  Its
``fault_schedule`` is the one list of everything a run is subjected to:
:func:`~repro.experiments.runner.assemble_world` hands the kinds defined
here (:data:`FaultSpec`) to :meth:`FaultController.apply` and the two
workload-level kinds to the workload they act on
(:class:`~repro.workload.churn.ChurnSurgeSpec`,
:class:`~repro.workload.openloop.RegionalSurge`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import inf
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import ConfigError, TransportError
from repro.sim.engine import Simulator
from repro.types import Address

#: Maps an address to its locality (or None when unknowable); partitions
#: and locality-scoped campaigns evaluate it lazily at delivery time, so
#: peers that register *after* the fault was scheduled are still covered.
LocalityFn = Callable[[Address], Optional[int]]


# ---------------------------------------------------------------------------
# Declarative fault specs (hashable; embeddable in ExperimentConfig)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BurstyLossSpec:
    """Gilbert-Elliott two-state bursty loss on every link.

    Attributes:
        p_good_to_bad: per-delivery probability of entering the bad state.
        p_bad_to_good: per-delivery probability of leaving it; the mean
            burst length is ``1 / p_bad_to_good`` deliveries.
        loss_good / loss_bad: drop probability in each state.  The
            stationary loss rate is
            ``pi_bad * loss_bad + (1 - pi_bad) * loss_good`` with
            ``pi_bad = p_gb / (p_gb + p_bg)``.
        start_ms / end_ms: active window (``end_ms=None`` = forever).
    """

    p_good_to_bad: float
    p_bad_to_good: float
    loss_good: float = 0.0
    loss_bad: float = 1.0
    start_ms: float = 0.0
    end_ms: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("p_good_to_bad", "p_bad_to_good", "loss_good", "loss_bad"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise TransportError(f"{name} must be in [0, 1] (got {value})")
        if self.p_bad_to_good == 0.0 and self.p_good_to_bad > 0.0:
            raise TransportError("p_bad_to_good=0 would make bursts permanent")

    @property
    def stationary_loss_rate(self) -> float:
        """Long-run fraction of deliveries dropped."""
        total = self.p_good_to_bad + self.p_bad_to_good
        if total == 0.0:
            return self.loss_good
        pi_bad = self.p_good_to_bad / total
        return pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good


@dataclass(frozen=True)
class PartitionSpec:
    """Cut all traffic between *locality* and the rest of the network
    (both directions) from ``start_ms`` until ``heal_ms``."""

    locality: int
    start_ms: float
    heal_ms: float

    def __post_init__(self) -> None:
        if self.heal_ms <= self.start_ms:
            raise TransportError("partition must heal after it starts")


@dataclass(frozen=True)
class LatencySpikeSpec:
    """Degrade link latency inside a time window.

    ``locality=None`` hits every link; otherwise only links with at least
    one endpoint in that locality are degraded.
    """

    start_ms: float
    end_ms: float
    multiplier: float = 1.0
    additive_ms: float = 0.0
    locality: Optional[int] = None

    def __post_init__(self) -> None:
        if self.end_ms <= self.start_ms:
            raise TransportError("latency spike must end after it starts")
        if self.multiplier < 1.0 or self.additive_ms < 0.0:
            raise TransportError("latency spikes only ever make links worse")


@dataclass(frozen=True)
class MassFailureSpec:
    """Crash a fraction of matching peers at one scheduled instant.

    ``locality=None`` draws from the whole population;
    ``directories_only=True`` restricts the campaign to nodes currently
    holding a directory role (Flower's D-ring wipe scenario).
    """

    at_ms: float
    fraction: float = 0.5
    locality: Optional[int] = None
    directories_only: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise TransportError("mass-failure fraction must be in (0, 1]")


@dataclass(frozen=True)
class SeederDeathSpec:
    """Kill the top uploaders of the swarming plane mid-window.

    At ``at_ms`` the live nodes are ranked by chunk payload bytes uploaded
    so far (``bytes_uploaded``) and the top ``count`` of them crashed --
    mid-transfer, which is the point: every chunk they were uploading
    aborts and the downloaders must fail over per-chunk.  Optionally
    restricted to uploaders of one hot website.  Inert when nothing has
    been uploaded (no swarming, or no traffic yet).

    Attributes:
        at_ms: strike time.
        count: how many top uploaders to crash.
        hot_website: if set, only peers interested in this website are
            candidates (the flash-crowd seeders).
    """

    at_ms: float
    count: int
    hot_website: Optional[int] = None

    def __post_init__(self) -> None:
        if self.at_ms < 0:
            raise ConfigError("seeder death needs at_ms >= 0")
        if self.count < 1:
            raise ConfigError("seeder death needs count >= 1")


#: The kinds :meth:`FaultController.apply` accepts.
FaultSpec = Union[
    BurstyLossSpec, PartitionSpec, LatencySpikeSpec, MassFailureSpec, SeederDeathSpec
]


# ---------------------------------------------------------------------------
# Live fault machinery
# ---------------------------------------------------------------------------

class _GilbertElliottLink:
    """Per-link two-state Markov loss process (evolves one step per
    delivery attempt, the classic packet-level formulation)."""

    __slots__ = ("bad",)

    def __init__(self) -> None:
        self.bad = False

    def step_and_drop(self, spec: BurstyLossSpec, rng: random.Random) -> bool:
        if self.bad:
            if rng.random() < spec.p_bad_to_good:
                self.bad = False
        else:
            if rng.random() < spec.p_good_to_bad:
                self.bad = True
        loss = spec.loss_bad if self.bad else spec.loss_good
        return loss > 0.0 and rng.random() < loss


class _Partition:
    """One scheduled partition: an address-set (or locality) boundary cut
    during ``[start_ms, end_ms)``."""

    def __init__(
        self,
        start_ms: float,
        heal_ms: float,
        side: Optional[frozenset],
        locality: Optional[int],
        locality_of: Optional[LocalityFn],
    ) -> None:
        self.start_ms = start_ms
        self.end_ms = heal_ms
        self._side = side
        self._locality = locality
        self._locality_of = locality_of

    def _in_side(self, address: Address) -> bool:
        if self._side is not None:
            return address in self._side
        if self._locality_of is None:
            return False
        return self._locality_of(address) == self._locality

    def cuts(self, src: Address, dst: Address) -> bool:
        return self._in_side(src) != self._in_side(dst)


class _LatencySpike:
    """One scheduled latency spike, degrading matching links during
    ``[start_ms, end_ms)``."""

    def __init__(self, spec: LatencySpikeSpec, locality_of: Optional[LocalityFn]):
        self.spec = spec
        self.start_ms = spec.start_ms
        self.end_ms = spec.end_ms
        self._locality_of = locality_of

    def applies(self, src: Address, dst: Address) -> bool:
        if self.spec.locality is None:
            return True
        if self._locality_of is None:
            return False
        return self.spec.locality in (
            self._locality_of(src), self._locality_of(dst)
        )

    def adjust(self, base: float) -> float:
        return base * self.spec.multiplier + self.spec.additive_ms


def _open_windows(windows: list, now: float) -> Tuple[list, float]:
    """The windows open at *now*, in the order given, and the earliest
    start or end of any window that lies after *now*."""
    opened = []
    edge = inf
    for window in windows:
        if now < window.start_ms:
            edge = min(edge, window.start_ms)
        elif now < window.end_ms:
            opened.append(window)
            edge = min(edge, window.end_ms)
    return opened, edge


class FaultController:
    """Schedules and executes fault campaigns against one network.

    Install with ``network.install_faults(controller)`` (the constructor
    does it for you); :class:`~repro.net.transport.Network` then consults
    :meth:`drop_cause` on every delivery and :meth:`latency_adjust` on
    every message leg -- but only once the clock has reached
    :attr:`calm_until`.

    The controller is edge-triggered: it keeps the windows that are open
    *now* and one time, the next start or end of any window, at which
    that knowledge expires.  The hooks poll that edge with one comparison
    and loop over the open windows only, so the cost of a schedule is
    paid at its edges, not per message.  Edges are polled rather than
    scheduled as events because event sequence numbers double as RPC
    request ids: one extra event would renumber every later RPC.

    Args:
        sim: the driving simulator.
        network: the fabric under attack.
        rng: the controller's dedicated random stream; defaults to the
            simulator's ``"faults"`` stream so fault injection never
            perturbs the random sequences of protocol components.
        locality_of: address -> locality mapping (usually
            ``LandmarkBinner.locality_of``); required for locality-scoped
            partitions, spikes and campaigns.
    """

    def __init__(
        self,
        sim: Simulator,
        network,
        rng: Optional[random.Random] = None,
        locality_of: Optional[LocalityFn] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.rng = rng if rng is not None else sim.rng("faults")
        self.locality_of = locality_of
        self._bursty: Optional[BurstyLossSpec] = None
        self._links: Dict[Tuple[Address, Address], _GilbertElliottLink] = {}
        #: the whole schedule, in registration order.
        self._partitions: List[_Partition] = []
        self._spikes: List[_LatencySpike] = []
        #: the part of it that is open now (same order), valid until the
        #: clock reaches ``_next_edge_ms``; see :meth:`_refresh`.
        self._open_partitions: List[_Partition] = []
        self._open_spikes: List[_LatencySpike] = []
        self._bursty_open = False
        self._next_edge_ms = inf
        #: read-only for the network: before this time no delivery is
        #: dropped and no latency adjusted, so a caller that sees
        #: ``now < calm_until`` may skip :meth:`drop_cause` and
        #: :meth:`latency_adjust` altogether.  ``-inf`` while any window
        #: is open.
        self.calm_until = inf
        #: fault kind -> how many times it struck (drops, crashes, ...).
        self.stats: Dict[str, int] = {}
        network.install_faults(self)

    # ------------------------------------------------------------- configure
    def apply(self, specs: Iterable[FaultSpec]) -> None:
        """Install every declarative spec from a ``fault_schedule``.

        A schedule carries at most one bursty-loss window (the controller
        runs one Gilbert-Elliott chain per link); a second one is an
        error, not a silent replacement of the first.
        """
        bursty: Optional[BurstyLossSpec] = None
        for spec in specs:
            if isinstance(spec, BurstyLossSpec):
                if bursty is not None:
                    raise TransportError(
                        "a fault schedule can carry only one bursty-loss "
                        f"window, got {bursty!r} and {spec!r}"
                    )
                bursty = spec
                self.set_bursty_loss(spec)
            elif isinstance(spec, PartitionSpec):
                self.schedule_partition(
                    spec.start_ms, spec.heal_ms, locality=spec.locality
                )
            elif isinstance(spec, LatencySpikeSpec):
                self.schedule_latency_spike(spec)
            elif isinstance(spec, MassFailureSpec):
                self.schedule_mass_failure(
                    spec.at_ms,
                    fraction=spec.fraction,
                    locality=spec.locality,
                    directories_only=spec.directories_only,
                )
            elif isinstance(spec, SeederDeathSpec):
                self.schedule_seeder_death(spec)
            else:
                raise TransportError(f"unknown fault spec {spec!r}")

    def set_bursty_loss(self, spec: BurstyLossSpec) -> None:
        """Enable Gilbert-Elliott loss on every link (one spec at a time:
        a later call replaces the earlier spec and resets every link)."""
        self._bursty = spec
        self._links.clear()
        self._refresh(self.sim.now)

    def schedule_partition(
        self,
        start_ms: float,
        heal_ms: float,
        locality: Optional[int] = None,
        group: Optional[frozenset] = None,
    ) -> None:
        """Cut traffic across a boundary during ``[start_ms, heal_ms)``.

        Exactly one of *locality* (binned side) or *group* (explicit
        address set) selects the isolated side.
        """
        if (locality is None) == (group is None):
            raise TransportError("pass exactly one of locality= or group=")
        if locality is not None and self.locality_of is None:
            raise TransportError(
                "locality partitions need a locality_of mapping"
            )
        if heal_ms <= start_ms:
            raise TransportError("partition must heal after it starts")
        partition = _Partition(
            start_ms,
            heal_ms,
            frozenset(group) if group is not None else None,
            locality,
            self.locality_of,
        )
        self._partitions.append(partition)
        self._refresh(self.sim.now)
        self.sim.schedule_at(
            self._due(start_ms, "partition_start"),
            self._emit_partition,
            "start",
            partition,
        )
        self.sim.schedule_at(
            self._due(heal_ms, "partition_heal"), self._emit_partition, "heal", partition
        )

    def _emit_partition(self, edge: str, partition: _Partition) -> None:
        self.sim.emit(f"fault.partition_{edge}")

    def schedule_latency_spike(self, spec: LatencySpikeSpec) -> None:
        """Degrade matching links during the spec's window."""
        if spec.locality is not None and self.locality_of is None:
            raise TransportError("locality spikes need a locality_of mapping")
        self._spikes.append(_LatencySpike(spec, self.locality_of))
        self._refresh(self.sim.now)

    def schedule_mass_failure(
        self,
        at_ms: float,
        fraction: float = 0.5,
        locality: Optional[int] = None,
        directories_only: bool = False,
    ) -> None:
        """Crash *fraction* of matching live peers at time *at_ms*.

        Victims are drawn with the controller's RNG from the nodes alive
        at fire time.  A node exposing ``crash()`` (CDN peers) is crashed
        through it so protocol processes are cancelled; bare network
        nodes just ``fail()``.
        """
        if locality is not None and self.locality_of is None:
            raise TransportError("locality campaigns need a locality_of mapping")
        spec = MassFailureSpec(
            at_ms=at_ms,
            fraction=fraction,
            locality=locality,
            directories_only=directories_only,
        )
        self.sim.schedule_at(
            self._due(at_ms, "mass_failure"), self._execute_mass_failure, spec
        )

    def schedule_seeder_death(self, spec: SeederDeathSpec) -> None:
        """Crash the top ``spec.count`` uploaders at ``spec.at_ms``."""
        self.sim.schedule_at(
            self._due(spec.at_ms, "seeder_death"), self._execute_seeder_death, spec
        )

    def _due(self, at_ms: float, what: str) -> float:
        """Clamp a fire time to ``now``; a past-due time is no longer
        silently absorbed -- it is executed immediately *and* reported
        (warning trace event + ``stats["past_due_reschedules"]``), so a
        mis-ordered fault schedule is visible instead of quietly shifting
        the campaign's timing.
        """
        now = self.sim.now
        if at_ms >= now:
            return at_ms
        self.stats["past_due_reschedules"] = (
            self.stats.get("past_due_reschedules", 0) + 1
        )
        self.sim.emit(
            "fault.past_due_reschedule",
            what=what,
            requested_ms=at_ms,
            now_ms=now,
        )
        return now

    def _execute_mass_failure(self, spec: MassFailureSpec) -> None:
        victims = []
        for node in self.network.nodes():
            if not node.alive:
                continue
            if spec.locality is not None and (
                self.locality_of is None
                or self.locality_of(node.address) != spec.locality
            ):
                continue
            if spec.directories_only and not getattr(node, "is_directory", False):
                continue
            victims.append(node)
        count = max(1, round(spec.fraction * len(victims))) if victims else 0
        chosen = self.rng.sample(victims, min(count, len(victims)))
        for node in chosen:
            crash = getattr(node, "crash", None)
            if callable(crash):
                crash()
            else:
                node.fail()
        self.stats["mass_failures"] = self.stats.get("mass_failures", 0) + len(chosen)
        self.sim.emit(
            "fault.mass_failure",
            crashed=len(chosen),
            matched=len(victims),
            directories_only=spec.directories_only,
        )

    def _execute_seeder_death(self, spec: SeederDeathSpec) -> None:
        """Rank and crash.  Only swarming peers carry ``bytes_uploaded``,
        so origin servers and landmarks never rank; descending bytes with
        an address tiebreak, because the ranking must be deterministic.
        The trace kind keeps the name it had when the chaos runner struck:
        renaming it would move every pinned stream with a strike in it."""
        seeders = [
            node
            for node in self.network.nodes()
            if node.alive
            and getattr(node, "bytes_uploaded", 0) > 0
            and (spec.hot_website is None or node.website == spec.hot_website)
        ]
        seeders.sort(key=lambda node: (-node.bytes_uploaded, node.address))
        for node in seeders[: spec.count]:
            self.sim.emit(
                "chaos.seeder_death",
                peer=node.address,
                bytes_uploaded=node.bytes_uploaded,
            )
            node.crash()

    # ---------------------------------------------------------- open windows
    def _refresh(self, now: float) -> None:
        """Recompute what is open at *now* and when that next changes.

        Runs when the clock crosses ``_next_edge_ms`` and whenever the
        schedule itself changes, so between two edges the open sets, the
        bursty flag and :attr:`calm_until` are exact.
        """
        self._open_partitions, edge = _open_windows(self._partitions, now)
        self._open_spikes, spike_edge = _open_windows(self._spikes, now)
        edge = min(edge, spike_edge)
        spec = self._bursty
        self._bursty_open = False
        if spec is not None:
            end_ms = inf if spec.end_ms is None else spec.end_ms
            if now < spec.start_ms:
                edge = min(edge, spec.start_ms)
            elif now < end_ms:
                self._bursty_open = True
                edge = min(edge, end_ms)
        self._next_edge_ms = edge
        calm = not (self._open_partitions or self._open_spikes or self._bursty_open)
        self.calm_until = edge if calm else -inf

    # --------------------------------------------------------- network hooks
    def drop_cause(self, src: Address, dst: Address) -> Optional[str]:
        """Consulted once per delivery attempt: partition cut first (a cut
        link drops deterministically), then the bursty-loss chain."""
        now = self.sim.now
        if now >= self._next_edge_ms:
            self._refresh(now)
        for partition in self._open_partitions:
            if partition.cuts(src, dst):
                self.stats["partition_drops"] = self.stats.get("partition_drops", 0) + 1
                return "partition"
        if self._bursty_open:
            link = self._links.get((src, dst))
            if link is None:
                link = self._links[(src, dst)] = _GilbertElliottLink()
            if link.step_and_drop(self._bursty, self.rng):
                self.stats["burst_drops"] = self.stats.get("burst_drops", 0) + 1
                return "loss"
        return None

    def latency_adjust(self, src: Address, dst: Address, base: float) -> float:
        """Consulted at scheduling time for every message leg; open spikes
        compose in registration order."""
        now = self.sim.now
        if now >= self._next_edge_ms:
            self._refresh(now)
        adjusted = base
        for spike in self._open_spikes:
            if spike.applies(src, dst):
                adjusted = spike.adjust(adjusted)
        return adjusted

    # ------------------------------------------------------------ inspection
    def partition_active(self, now: Optional[float] = None) -> bool:
        """Is any partition cutting traffic now (or at time *now*)?"""
        present = self.sim.now
        if now is None or now == present:
            if present >= self._next_edge_ms:
                self._refresh(present)
            return bool(self._open_partitions)
        return any(p.start_ms <= now < p.end_ms for p in self._partitions)
