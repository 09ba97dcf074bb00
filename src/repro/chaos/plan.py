"""Declarative, seeded chaos plans.

A :class:`ChaosPlan` is a reproducible schedule of disturbances: a phase
timeline for humans and the auditor, plus one list of specs,
``plan.faults``, that implements it.  Every spec is of a kind
``ExperimentConfig.fault_schedule`` accepts and each kind is defined
beside the thing it acts on (network faults and crash campaigns in
:mod:`repro.net.faults`, churn surges in :mod:`repro.workload.churn`,
open-loop surges in :mod:`repro.workload.openloop`), so running a plan is
appending ``plan.faults`` to a config's schedule.  Plans come from two
places:

- :func:`generate_plan` composes one *randomly* from a dedicated RNG
  stream seeded by ``chaos_seed`` -- the same ``(chaos_seed, horizon,
  knobs)`` always yields the same plan, independent of the simulation's
  master seed;
- :func:`ChaosPlan.from_dict` re-hydrates a plan from a reproducer
  bundle, so a dumped violation replays bit-for-bit.

Phase menu (weights scale with ``intensity``):

==================  =====================================================
``calm``            nothing injected; lets the auditor observe recovery
``churn_burst``     a surge of extra arrivals + a fractional mass failure
``partition``       one locality cut off, healing before the phase ends
``directory_wipe``  a mass failure restricted to directory peers
``latency_spike``   a multiplicative/additive latency window
``bursty_loss``     a Gilbert-Elliott loss window (at most one per plan)
``flash_crowd``     a surge of arrivals pinned to one hot website
``split_brain``     a locality partition with a directory wipe *inside*
                    the cut: the isolated petals elect provisional
                    directories that must reconcile with the surviving
                    ring registrants at the heal (section 5.3)
==================  =====================================================

Opt-in (``generate_plan(..., overload=True)``, off by default so existing
chaos seeds keep generating byte-identical plans):

==================      =================================================
``sustained_overload``  a long open-loop traffic plateau well above the
                        directories' service capacity, regionally
                        correlated; exercises the bounded admission queue
                        and replica-aware shedding (requires a config
                        with ``openloop_rate_qps > 0``)
``seeder_death``        kill the top-N uploaders mid-window
                        (``generate_plan(..., seeder_death=True)``);
                        exercises mid-transfer chunk failover and the
                        I9 transfer ledger (requires a config with
                        ``swarming=True``)
==================      =================================================
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.net.faults import (
    BurstyLossSpec,
    LatencySpikeSpec,
    MassFailureSpec,
    PartitionSpec,
    SeederDeathSpec,
    UniformLossSpec,
)
from repro.sim.clock import minutes
from repro.workload.churn import ChurnSurgeSpec
from repro.workload.openloop import RegionalSurge

if TYPE_CHECKING:
    from repro.experiments.config import ScheduleSpec

#: Current on-disk schema of serialized plans / reproducer bundles.
#: 2: one spec list (``faults``) where schema 1 kept surges, overload
#: surges and seeder deaths in side lists, and a bundle's config no longer
#: repeats its plan's specs.
PLAN_SCHEMA = 2


@dataclass(frozen=True)
class ChaosPhase:
    """One labelled segment of the plan's timeline (for humans and the
    auditor's context; the actual injection lives in the specs)."""

    kind: str
    start_ms: float
    end_ms: float

    def __post_init__(self) -> None:
        if self.end_ms <= self.start_ms:
            raise ConfigError("phase must end after it starts")


#: spec-type registry for the JSON round trip.
_SPEC_TYPES = {
    "uniform_loss": UniformLossSpec,
    "bursty_loss": BurstyLossSpec,
    "partition": PartitionSpec,
    "latency_spike": LatencySpikeSpec,
    "mass_failure": MassFailureSpec,
    "churn_surge": ChurnSurgeSpec,
    "regional_surge": RegionalSurge,
    "seeder_death": SeederDeathSpec,
    "chaos_phase": ChaosPhase,
}
_SPEC_NAMES = {cls: name for name, cls in _SPEC_TYPES.items()}


def spec_to_dict(spec: Any) -> Dict[str, Any]:
    """Serialize one frozen spec with a ``type`` tag."""
    name = _SPEC_NAMES.get(type(spec))
    if name is None:
        raise ConfigError(f"unserializable spec {spec!r}")
    data = asdict(spec)
    data["type"] = name
    return data


def spec_from_dict(data: Dict[str, Any]) -> Any:
    """Inverse of :func:`spec_to_dict`."""
    data = dict(data)
    name = data.pop("type", None)
    cls = _SPEC_TYPES.get(name)
    if cls is None:
        raise ConfigError(f"unknown spec type {name!r}")
    return cls(**data)


@dataclass(frozen=True)
class ChaosPlan:
    """A complete, reproducible chaos schedule.

    Attributes:
        name: human-readable label ("chaos-7-1.0", ...).
        chaos_seed: the seed :func:`generate_plan` used (carried for the
            reproducer bundle even though the plan itself is explicit).
        horizon_ms: intended experiment length.
        faults: every disturbance of the plan, in generation order -- the
            tuple :func:`~repro.chaos.runner.run_chaos` appends to the
            config's ``fault_schedule``.
        phases: the labelled timeline (emitted as ``chaos.phase`` events).
    """

    name: str
    chaos_seed: int
    horizon_ms: float
    faults: Tuple[ScheduleSpec, ...] = ()
    phases: Tuple[ChaosPhase, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.horizon_ms <= 0:
            raise ConfigError("plan horizon must be positive")
        if not isinstance(self.faults, tuple):
            object.__setattr__(self, "faults", tuple(self.faults))
        if not isinstance(self.phases, tuple):
            object.__setattr__(self, "phases", tuple(self.phases))

    # ------------------------------------------------------------ serialize
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": PLAN_SCHEMA,
            "name": self.name,
            "chaos_seed": self.chaos_seed,
            "horizon_ms": self.horizon_ms,
            "faults": [spec_to_dict(s) for s in self.faults],
            "phases": [spec_to_dict(p) for p in self.phases],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ChaosPlan":
        schema = data.get("schema", PLAN_SCHEMA)
        if schema != PLAN_SCHEMA:
            raise ConfigError(f"unsupported plan schema {schema!r}")
        return cls(
            name=data["name"],
            chaos_seed=data["chaos_seed"],
            horizon_ms=data["horizon_ms"],
            faults=tuple(spec_from_dict(s) for s in data.get("faults", ())),
            phases=tuple(spec_from_dict(p) for p in data.get("phases", ())),
        )


# ---------------------------------------------------------------------------
# Randomized plan generation
# ---------------------------------------------------------------------------

#: phase kind -> base weight in the generator's menu.
_PHASE_WEIGHTS = (
    ("calm", 2.0),
    ("churn_burst", 2.0),
    ("partition", 2.0),
    ("directory_wipe", 1.0),
    ("latency_spike", 1.5),
    ("bursty_loss", 1.0),
    ("flash_crowd", 1.5),
    ("split_brain", 1.0),
)


def generate_plan(
    chaos_seed: int,
    horizon_ms: float,
    num_localities: int,
    num_websites: int,
    intensity: float = 1.0,
    population: int = 120,
    name: Optional[str] = None,
    overload: bool = False,
    seeder_death: bool = False,
) -> ChaosPlan:
    """Compose a randomized chaos plan from its own RNG stream.

    The generator walks the horizon after a warmup third, drawing phase
    kinds from a weighted menu and phase lengths from ranges scaled by
    *intensity* (1.0 = the default stress level; higher = longer, harsher
    phases).  Every partition heals before the horizon, and at most one
    bursty-loss window is generated (the controller keeps one Gilbert-
    Elliott chain at a time).

    ``overload=True`` adds ``sustained_overload`` to the menu and
    ``seeder_death=True`` adds ``seeder_death`` (module docstring); both
    are opt-in because extending the menu reshuffles every draw -- the
    default keeps historical ``chaos_seed`` values generating exactly the
    plans they always did.

    Determinism: the plan is a pure function of the arguments; the RNG is
    ``random.Random(f"chaos:{chaos_seed}")``, decoupled from every
    simulation stream.
    """
    if horizon_ms <= 0:
        raise ConfigError("horizon must be positive")
    if not 0.1 <= intensity <= 10.0:
        raise ConfigError("intensity must be in [0.1, 10]")
    rng = random.Random(f"chaos:{chaos_seed}")
    menu = _PHASE_WEIGHTS
    if overload:
        menu = menu + (("sustained_overload", 2.0),)
    if seeder_death:
        menu = menu + (("seeder_death", 2.0),)
    kinds = [k for k, _ in menu]
    weights = [w for _, w in menu]

    faults: List[ScheduleSpec] = []
    phases: List[ChaosPhase] = []
    used_bursty = False

    # Leave the first chunk of the run fault-free so petals, gossip views
    # and directory indexes form before the abuse begins.
    warmup = max(minutes(20.0), 0.15 * horizon_ms)
    phases.append(ChaosPhase("calm", 0.0, warmup))
    cursor = warmup
    # Keep a calm tail so the auditor can watch the system reconverge.
    tail = max(minutes(15.0), 0.1 * horizon_ms)
    end_of_chaos = horizon_ms - tail

    while cursor < end_of_chaos:
        kind = rng.choices(kinds, weights=weights)[0]
        if kind == "bursty_loss" and used_bursty:
            kind = "calm"
        base = rng.uniform(minutes(10.0), minutes(30.0))
        duration = min(base * (0.7 + 0.6 * intensity), end_of_chaos - cursor)
        if duration < minutes(5.0):
            break
        start, end = cursor, cursor + duration

        if kind == "partition":
            heal = start + min(duration * rng.uniform(0.4, 0.8), duration)
            faults.append(
                PartitionSpec(
                    locality=rng.randrange(num_localities),
                    start_ms=start,
                    heal_ms=heal,
                )
            )
        elif kind == "churn_burst":
            faults.append(
                ChurnSurgeSpec(
                    start_ms=start,
                    duration_ms=duration * 0.5,
                    arrivals=max(2, int(0.1 * intensity * population)),
                )
            )
            faults.append(
                MassFailureSpec(
                    at_ms=start + duration * 0.6,
                    fraction=min(0.9, 0.15 * intensity),
                    locality=rng.randrange(num_localities)
                    if rng.random() < 0.5
                    else None,
                )
            )
        elif kind == "directory_wipe":
            faults.append(
                MassFailureSpec(
                    at_ms=start + duration * 0.3,
                    fraction=min(1.0, 0.5 + 0.25 * intensity),
                    directories_only=True,
                )
            )
        elif kind == "latency_spike":
            faults.append(
                LatencySpikeSpec(
                    start_ms=start,
                    end_ms=end,
                    multiplier=1.0 + 0.5 * intensity * rng.uniform(0.5, 1.5),
                    additive_ms=rng.uniform(0.0, 50.0 * intensity),
                    locality=rng.randrange(num_localities)
                    if rng.random() < 0.5
                    else None,
                )
            )
        elif kind == "bursty_loss":
            used_bursty = True
            faults.append(
                BurstyLossSpec(
                    p_good_to_bad=min(0.2, 0.02 * intensity),
                    p_bad_to_good=0.2,
                    loss_bad=min(1.0, 0.6 + 0.2 * intensity),
                    start_ms=start,
                    end_ms=end,
                )
            )
        elif kind == "split_brain":
            # The warm-failover torture test: cut one locality off, then
            # kill (most of) the directories inside the cut while it is
            # isolated.  The orphaned petals must claim provisional
            # directories that survive until the heal, then reconcile
            # (merge + demote) against whatever replacement won the ring
            # race.  The wipe fraction scales with intensity like every
            # other mass failure (total wipe from intensity 3 up).
            locality = rng.randrange(num_localities)
            heal = start + duration * rng.uniform(0.55, 0.85)
            faults.append(
                PartitionSpec(locality=locality, start_ms=start, heal_ms=heal)
            )
            faults.append(
                MassFailureSpec(
                    at_ms=start + (heal - start) * 0.3,
                    fraction=min(1.0, 0.7 + 0.1 * intensity),
                    locality=locality,
                    directories_only=True,
                )
            )
        elif kind == "flash_crowd":
            faults.append(
                ChurnSurgeSpec(
                    start_ms=start,
                    duration_ms=duration * 0.4,
                    arrivals=max(3, int(0.15 * intensity * population)),
                    hot_website=rng.randrange(num_websites),
                    hot_interest_probability=0.8,
                )
            )
        elif kind == "sustained_overload":
            # A long plateau, not a blip: the ramp is a small fraction of
            # the phase and the decay constant stretches past its end, so
            # the admission queues stay saturated for most of the window.
            # ``RegionalSurge`` spells "everywhere" / "no website" as -1.
            faults.append(
                RegionalSurge(
                    start_ms=start,
                    ramp_ms=max(minutes(1.0), duration * 0.15),
                    peak_multiplier=1.0 + intensity * rng.uniform(1.5, 3.0),
                    decay_ms=duration * 0.5,
                    locality=rng.randrange(num_localities)
                    if rng.random() < 0.5
                    else -1,
                    hot_website=rng.randrange(num_websites)
                    if rng.random() < 0.5
                    else -1,
                )
            )
        elif kind == "seeder_death":
            # Strike once the window's transfers are underway: peers are
            # ranked by bytes uploaded *at the strike instant*, so the
            # kill lands on whoever actually carried the swarm.
            faults.append(
                SeederDeathSpec(
                    at_ms=start + duration * rng.uniform(0.3, 0.6),
                    count=max(1, int(0.02 * intensity * population)),
                    hot_website=rng.randrange(num_websites)
                    if rng.random() < 0.5
                    else None,
                )
            )
        # "calm": inject nothing; the phase label alone documents the gap.

        phases.append(ChaosPhase(kind, start, end))
        cursor = end + rng.uniform(minutes(2.0), minutes(10.0))

    phases.append(ChaosPhase("calm", min(end_of_chaos, horizon_ms), horizon_ms))
    return ChaosPlan(
        name=name or f"chaos-{chaos_seed}-i{intensity:g}",
        chaos_seed=chaos_seed,
        horizon_ms=horizon_ms,
        faults=tuple(faults),
        phases=tuple(phases),
    )
