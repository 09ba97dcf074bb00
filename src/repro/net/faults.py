"""Fault injection: message loss, partitions, latency spikes, crash campaigns.

Crash churn alone is independent; real overlay stress is *correlated*:
routers fail and take whole localities offline, congested links drop
packets in bursts, backbone cuts partition the network for minutes and
then heal.  This module provides those scenarios as schedulable,
reproducible fault campaigns:

- **uniform loss** -- every delivery attempt dropped i.i.d. with one
  probability (the baseline lossy network);
- **Gilbert-Elliott bursty loss** -- a two-state Markov chain per link
  (good/bad); the bad state drops with high probability, producing the
  loss *bursts* that defeat single-shot RPC failure detection;
- **network partitions** -- traffic crossing a locality boundary is cut in
  both directions between a start and a heal time;
- **latency-degradation windows** -- a multiplier and/or additive spike on
  selected links for a while (congestion, route flaps);
- **mass-failure campaigns** -- crash a fraction of a locality's peers, or
  every directory peer, at a scheduled instant (correlated churn, the
  paper's "worst scenarios");
- **seeder deaths** -- crash the top chunk uploaders of the swarming plane
  at a scheduled instant, ranked at the strike.

Everything is driven by the deterministic simulation clock, and every
random draw comes from a dedicated RNG stream (``"faults"`` by default;
uniform loss draws from ``"loss"``), so a run with fault injection is
exactly as reproducible as one without: identical seeds produce identical
trajectories, fault for fault.  The controller is the network's one drop
path: a message is lost to a dead destination or to :meth:`drop_cause`,
never to anything else.

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
class UniformLossSpec:
    """Drop every delivery attempt -- request, reply or one-way -- i.i.d.
    with probability ``rate``, for the whole run.

    Protocols already treat a lost message exactly like one to a dead
    peer (an RPC timeout), so loss needs no protocol code; only the
    failure rate goes up.
    """

    rate: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate < 1.0:
            raise ConfigError(f"uniform loss rate must be in [0, 1) (got {self.rate})")


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
    holding a directory role (Flower's D-ring wipe scenario).  A node
    marked ``never_fails`` (an origin server) is never drawn.
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
    UniformLossSpec,
    BurstyLossSpec,
    PartitionSpec,
    LatencySpikeSpec,
    MassFailureSpec,
    SeederDeathSpec,
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
    """One scheduled partition: a locality boundary cut during
    ``[start_ms, end_ms)``."""

    def __init__(self, spec: PartitionSpec, locality_of: LocalityFn) -> None:
        self.start_ms = spec.start_ms
        self.end_ms = spec.heal_ms
        self._locality = spec.locality
        self._locality_of = locality_of

    def cuts(self, src: Address, dst: Address) -> bool:
        locality_of = self._locality_of
        locality = self._locality
        return (locality_of(src) == locality) != (locality_of(dst) == locality)


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
        self._uniform: Optional[UniformLossSpec] = None
        #: the stream uniform loss draws from: the simulator's ``"loss"``
        #: stream, fetched when a :class:`UniformLossSpec` is installed.
        self.loss_rng: Optional[random.Random] = None
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
        #: is open or uniform loss is installed.
        self.calm_until = inf
        #: fault kind -> how many times it struck (drops, crashes, ...).
        self.stats: Dict[str, int] = {}
        network.install_faults(self)

    # ------------------------------------------------------------- configure
    def apply(self, specs: Iterable[FaultSpec]) -> None:
        """Install declarative specs: a ``fault_schedule``, or more of them
        mid-run.  A window takes effect as soon as the clock is inside it;
        an instant already past fires now, and is reported (see
        :meth:`_due`).

        The controller runs one Gilbert-Elliott chain per link and one
        uniform-loss draw per delivery, so it carries at most one spec of
        each of those two kinds: a second one is an error, not a silent
        replacement of the first.  Locality-scoped specs need the
        ``locality_of`` mapping.
        """
        sim = self.sim
        for spec in specs:
            if isinstance(spec, PartitionSpec):
                self._need_locality_of(spec)
                self._partitions.append(_Partition(spec, self.locality_of))
                sim.schedule_at(
                    self._due(spec.start_ms, "partition_start"),
                    sim.emit,
                    "fault.partition_start",
                )
                sim.schedule_at(
                    self._due(spec.heal_ms, "partition_heal"),
                    sim.emit,
                    "fault.partition_heal",
                )
            elif isinstance(spec, LatencySpikeSpec):
                if spec.locality is not None:
                    self._need_locality_of(spec)
                self._spikes.append(_LatencySpike(spec, self.locality_of))
            elif isinstance(spec, BurstyLossSpec):
                self._only_one(self._bursty, spec, "bursty-loss window")
                self._bursty = spec
            elif isinstance(spec, UniformLossSpec):
                self._only_one(self._uniform, spec, "uniform loss rate")
                self._uniform = spec
                self.loss_rng = sim.rng("loss")
            elif isinstance(spec, MassFailureSpec):
                if spec.locality is not None:
                    self._need_locality_of(spec)
                sim.schedule_at(
                    self._due(spec.at_ms, "mass_failure"),
                    self._execute_mass_failure,
                    spec,
                )
            elif isinstance(spec, SeederDeathSpec):
                sim.schedule_at(
                    self._due(spec.at_ms, "seeder_death"),
                    self._execute_seeder_death,
                    spec,
                )
            else:
                raise TransportError(f"unknown fault spec {spec!r}")
        self._refresh(sim.now)

    def _need_locality_of(self, spec: FaultSpec) -> None:
        if self.locality_of is None:
            raise TransportError(f"{spec!r} needs a locality_of mapping")

    @staticmethod
    def _only_one(installed: Optional[FaultSpec], spec: FaultSpec, what: str) -> None:
        if installed is not None:
            raise TransportError(
                f"a fault schedule can carry only one {what}, "
                f"got {installed!r} and {spec!r}"
            )

    def _due(self, at_ms: float, what: str) -> float:
        """Clamp a fire time to ``now``; a past-due time is executed
        immediately *and* reported (warning trace event +
        ``stats["past_due_reschedules"]``), so a mis-ordered fault schedule
        is visible instead of quietly shifting the campaign's timing.
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
        """Victims are drawn with the controller's RNG from the matching
        nodes alive now, never from those marked ``never_fails`` (origin
        servers, which nothing revives).  A node exposing ``crash()`` (CDN
        peers) is crashed through it so its protocol processes are
        cancelled; a bare network node just ``fail()``s."""
        victims = []
        for node in self.network.nodes():
            if not node.alive or getattr(node, "never_fails", False):
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
        calm = not (
            self._open_partitions
            or self._open_spikes
            or self._bursty_open
            or self._uniform is not None
        )
        self.calm_until = edge if calm else -inf

    # --------------------------------------------------------- network hooks
    def drop_cause(self, src: Address, dst: Address) -> Optional[str]:
        """Consulted once per delivery attempt: partition cut first (a cut
        link drops deterministically), then the bursty-loss chain, then
        one uniform-loss draw.  Both losses are cause ``"loss"``; only the
        bursty ones are counted in :attr:`stats`."""
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
        uniform = self._uniform
        if uniform is not None and self.loss_rng.random() < uniform.rate:
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
    def partition_active(self) -> bool:
        """Is any partition cutting traffic now?"""
        now = self.sim.now
        if now >= self._next_edge_ms:
            self._refresh(now)
        return bool(self._open_partitions)

    def disturbed(self, now: float, settle: float) -> bool:
        """Is *now* inside, or within *settle* after, a partition, a
        latency spike or a bounded bursty-loss window?

        Those are the schedule's disturbances with an end, after which a
        protocol owes convergence again.  Uniform loss and an unbounded
        bursty window last the whole run: they are the network the
        protocols must converge on, not a window.
        """
        windows = [*self._partitions, *self._spikes]
        bursty = self._bursty
        if bursty is not None and bursty.end_ms is not None:
            windows.append(bursty)
        return any(w.start_ms <= now < w.end_ms + settle for w in windows)
