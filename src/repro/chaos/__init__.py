"""Chaos scenario engine + online invariant auditor.

Jepsen-style correctness checking for the Flower-CDN / PetalUp-CDN
simulation: :mod:`repro.chaos.plan` composes randomized, seeded fault
schedules into declarative :class:`ChaosPlan` objects;
:mod:`repro.chaos.auditor` continuously verifies system-wide safety and
liveness properties while those faults fire (see ``docs/PROTOCOLS.md``
section 9 for the invariant catalogue); :mod:`repro.chaos.runner` wires
both into a standard experiment world and dumps minimal reproducer
bundles to ``results/chaos/`` on violation.
"""

from repro.chaos.auditor import InvariantAuditor, Violation
from repro.chaos.plan import ChaosPhase, ChaosPlan, ChurnSurgeSpec, generate_plan
from repro.chaos.runner import (
    ChaosRunReport,
    load_bundle,
    merged_config,
    replay_bundle,
    run_chaos,
)

__all__ = [
    "ChaosPhase",
    "ChaosPlan",
    "ChaosRunReport",
    "ChurnSurgeSpec",
    "InvariantAuditor",
    "Violation",
    "generate_plan",
    "load_bundle",
    "merged_config",
    "replay_bundle",
    "run_chaos",
]
