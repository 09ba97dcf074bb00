"""Chaos experiment runner: plans in, violations (hopefully none) out.

:func:`run_chaos` executes one :class:`~repro.chaos.plan.ChaosPlan`
against a standard experiment world with the
:class:`~repro.chaos.auditor.InvariantAuditor` online.  The plan's specs
are appended to the config's ``fault_schedule`` and installed where every
schedule is installed (:func:`~repro.experiments.runner.assemble_world`),
so a chaos run differs from any other run of that config only in what
this module adds on top: the auditor, an optional stream fingerprint, and
the phase timeline emitted as ``chaos.phase`` trace events so the auditor
-- and any reproducer bundle -- can contextualise violations.

Reproducibility contract: a chaos run is a pure function of
``(protocol, config, plan, seed)``.  A reproducer bundle stores exactly
those four, each spec once, and :func:`replay_bundle` hands them back to
:func:`run_chaos` -- same schedule, same RNG streams -- so a violation
found in CI replays locally from one JSON file.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.chaos.auditor import InvariantAuditor, Violation
from repro.chaos.plan import ChaosPlan, spec_from_dict, spec_to_dict
from repro.errors import ConfigError
from repro.experiments.config import ExperimentConfig
from repro.experiments.results import ExperimentResult
from repro.experiments.runner import World, build_world, summarize
from repro.sim.clock import HOUR
from repro.sim.trace import StreamFingerprint


# ---------------------------------------------------------------------------
# Config (de)serialization -- reproducer bundles carry the full config
# ---------------------------------------------------------------------------


def config_to_dict(config: ExperimentConfig) -> Dict[str, Any]:
    """Serialize an :class:`ExperimentConfig` to plain JSON data.

    ``fault_schedule`` entries go through the spec registry of
    :mod:`repro.chaos.plan` (type-tagged dicts); everything else is a
    scalar already.
    """
    data: Dict[str, Any] = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.name == "fault_schedule":
            value = [spec_to_dict(spec) for spec in value]
        data[f.name] = value
    return data


def config_from_dict(data: Dict[str, Any]) -> ExperimentConfig:
    """Inverse of :func:`config_to_dict` (unknown keys are rejected so a
    bundle from a different schema fails loudly, not subtly)."""
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    extra = set(data) - known
    if extra:
        raise ConfigError(f"unknown config fields in bundle: {sorted(extra)}")
    kwargs = dict(data)
    if "fault_schedule" in kwargs:
        kwargs["fault_schedule"] = tuple(
            spec_from_dict(spec) for spec in kwargs["fault_schedule"]
        )
    return ExperimentConfig(**kwargs)


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


@dataclass
class ChaosRunReport:
    """Everything one chaos run produced.

    Attributes:
        protocol / seed / plan: what ran.
        result: the usual experiment summary (metrics include any
            ``failed_*`` query outcomes the chaos caused).
        violations: auditor findings, empty on a clean run.
        stats: the auditor's counters (audits, ledger traffic, ...).
        reacquire_times_ms: observed directory-slot recovery times.
        bundle_paths: reproducer bundles written for the violations.
        fingerprint: :class:`~repro.sim.trace.StreamFingerprint` of the
            full trace stream when requested (the determinism handle:
            same inputs => same fingerprint).
    """

    protocol: str
    seed: int
    plan: ChaosPlan
    result: ExperimentResult
    violations: List[Violation] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=dict)
    reacquire_times_ms: List[float] = field(default_factory=list)
    bundle_paths: List[str] = field(default_factory=list)
    fingerprint: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when the auditor observed no invariant violation."""
        return not self.violations

    def summary_line(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        search = ""
        issued = self.stats.get("searches", 0)
        if issued:
            answered = issued - self.stats.get("searches_unanswered", 0)
            search = (
                f"search={answered}/{issued} "
                f"stale_max={self.stats.get('search_stale_max_ms', 0)}ms "
            )
        shed = ""
        shed_count = self.stats.get("queries_shed", 0)
        if shed_count:
            shed = (
                f"shed={shed_count} "
                f"members_shed={self.stats.get('members_shed', 0)} "
            )
        swarm = ""
        transfers = self.stats.get("transfers_opened", 0)
        if transfers:
            swarm = (
                f"transfers={self.stats.get('transfers_closed', 0)}/{transfers} "
                f"degraded={self.stats.get('transfers_degraded', 0)} "
            )
        return (
            f"[{self.protocol}] plan={self.plan.name} seed={self.seed} "
            f"audits={self.stats.get('audits', 0)} "
            f"queries={self.stats.get('queries_opened', 0)} "
            f"{search}"
            f"{shed}"
            f"{swarm}"
            f"hit_ratio={self.result.hit_ratio:.4f} -> {status}"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "protocol": self.protocol,
            "seed": self.seed,
            "plan": self.plan.to_dict(),
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.violations],
            "stats": dict(self.stats),
            "reacquire_times_ms": list(self.reacquire_times_ms),
            "bundle_paths": list(self.bundle_paths),
            "fingerprint": self.fingerprint,
            "result": self.result.to_dict(),
        }


# ---------------------------------------------------------------------------
# Phase wiring
# ---------------------------------------------------------------------------


def _install_phase_markers(world: World, plan: ChaosPlan) -> None:
    """Emit ``chaos.phase`` at each phase start (auditor context + human
    -readable timeline in traces and reproducer bundles)."""
    sim = world.sim

    def mark(kind: str, start_ms: float, end_ms: float) -> None:
        sim.emit("chaos.phase", phase=kind, start_ms=start_ms, end_ms=end_ms)

    for phase in plan.phases:
        sim.schedule(
            max(phase.start_ms - sim.now, 0.0),
            mark,
            phase.kind,
            phase.start_ms,
            phase.end_ms,
        )


# ---------------------------------------------------------------------------
# Running and replaying
# ---------------------------------------------------------------------------


def merged_config(config: ExperimentConfig, plan: ChaosPlan) -> ExperimentConfig:
    """*config* running *plan*: the plan's horizon, and the plan's specs
    after the config's own -- the whole difference between a chaos run's
    config and its base, for every door that runs one."""
    return config.replace(
        duration_hours=plan.horizon_ms / HOUR,
        fault_schedule=config.fault_schedule + plan.faults,
    )


def run_chaos(
    protocol: str,
    config: ExperimentConfig,
    plan: ChaosPlan,
    seed: int = 0,
    results_dir: Optional[str] = "results/chaos",
    halt_on_violation: bool = False,
    collect_fingerprint: bool = False,
) -> ChaosRunReport:
    """Run *plan* against *protocol* with the invariant auditor online.

    Args:
        protocol: "flower", "petalup", "squirrel" or "squirrel-home".
        config: base experiment config; its duration is overridden by the
            plan's horizon and the plan's specs are appended to its
            ``fault_schedule``.
        seed: master simulation seed (the chaos plan carries its own).
        results_dir: where violation reproducer bundles land (None
            disables dumping).
        halt_on_violation: stop the simulation at the first violation.
        collect_fingerprint: also hash the full trace stream (used by the
            replay-determinism tests; costs one firehose subscriber).

    Returns:
        A :class:`ChaosRunReport`; ``report.ok`` is the pass/fail bit.
    """
    world = build_world(protocol, merged_config(config, plan), seed)
    fingerprint = StreamFingerprint(world.sim.trace) if collect_fingerprint else None
    auditor = InvariantAuditor(
        world,
        plan=plan,
        results_dir=results_dir,
        halt_on_violation=halt_on_violation,
    )
    _install_phase_markers(world, plan)
    world.run()
    auditor.finalize()
    result = summarize(
        world,
        protocol,
        seed,
        chaos_plan=plan.name,
        chaos_violations=len(auditor.violations),
        auditor_stats=dict(auditor.stats),
    )
    return ChaosRunReport(
        protocol=protocol,
        seed=seed,
        plan=plan,
        result=result,
        violations=list(auditor.violations),
        stats=dict(auditor.stats),
        reacquire_times_ms=list(auditor.reacquire_times_ms),
        bundle_paths=list(auditor.bundle_paths),
        fingerprint=fingerprint.hexdigest() if fingerprint else None,
    )


def load_bundle(path: str) -> Dict[str, Any]:
    """Read one reproducer bundle back from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        bundle = json.load(handle)
    for key in ("protocol", "seed", "config"):
        if key not in bundle:
            raise ConfigError(f"reproducer bundle missing {key!r}: {path}")
    return bundle


def replay_bundle(
    bundle_or_path,
    results_dir: Optional[str] = None,
    halt_on_violation: bool = False,
    collect_fingerprint: bool = False,
) -> ChaosRunReport:
    """Re-execute a dumped reproducer bundle bit-for-bit.

    A bundle holds the arguments of the :func:`run_chaos` call that
    produced it, so the replay is that call again.  On an unchanged build
    it re-triggers the recorded violation deterministically; on a fixed
    build it comes back clean -- either way the report says so.
    """
    bundle = (
        load_bundle(bundle_or_path)
        if isinstance(bundle_or_path, str)
        else bundle_or_path
    )
    config = config_from_dict(bundle["config"])
    plan_data = bundle.get("plan")
    if plan_data is not None:
        plan = ChaosPlan.from_dict(plan_data)
    else:
        # Ad-hoc auditor run without a plan: synthesize an empty one so
        # the replay still has a horizon and a name.
        plan = ChaosPlan(
            name="adhoc-replay",
            chaos_seed=bundle["seed"],
            horizon_ms=config.duration_ms,
        )
    return run_chaos(
        bundle["protocol"],
        config,
        plan,
        seed=bundle["seed"],
        results_dir=results_dir,
        halt_on_violation=halt_on_violation,
        collect_fingerprint=collect_fingerprint,
    )
