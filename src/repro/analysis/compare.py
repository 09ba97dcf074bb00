"""Flower-vs-baseline comparison reports and codified shape checks.

The paper's claims are *relative*: who wins, by what factor, where the
crossover falls.  :func:`shape_checks` turns each claim into a named,
machine-checkable predicate over a pair of results, so "does the
reproduction hold?" is one function call -- used by the benchmark harness
and recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.experiments.results import ExperimentResult
from repro.metrics.report import render_table


@dataclass(frozen=True)
class ShapeCheck:
    """One qualitative claim from the paper, evaluated on measured data.

    Attributes:
        name: short identifier of the claim.
        claim: the paper's wording (paraphrased).
        passed: whether the measured pair of runs exhibits it.
        detail: the measured quantities behind the verdict.
    """

    name: str
    claim: str
    passed: bool
    detail: str


def cdf_fraction_below(cdf: List[Tuple[float, float]], threshold: float) -> float:
    """Fraction of a stored CDF at or below *threshold*: the cumulative
    fraction of the last ``(value, fraction)`` point with value <= it."""
    best = 0.0
    for value, fraction in cdf:
        if value <= threshold:
            best = fraction
    return best


def shape_checks(
    flower: ExperimentResult, squirrel: ExperimentResult
) -> List[ShapeCheck]:
    """Evaluate every figure/table claim on a (Flower, Squirrel) pair."""
    checks: List[ShapeCheck] = []

    early_f = flower.hit_ratio_curve[0][1] if flower.hit_ratio_curve else 0.0
    early_s = squirrel.hit_ratio_curve[0][1] if squirrel.hit_ratio_curve else 0.0
    checks.append(
        ShapeCheck(
            "fig3_squirrel_leads_early",
            "At the beginning, Squirrel surpasses Flower-CDN wrt. hit ratio",
            early_s > early_f,
            f"hour-1 hit ratio: squirrel={early_s:.3f}, flower={early_f:.3f}",
        )
    )
    checks.append(
        ShapeCheck(
            "fig3_flower_wins_finally",
            "Flower-CDN keeps improving and ends ahead of Squirrel",
            flower.hit_ratio > squirrel.hit_ratio,
            f"final hit ratio: flower={flower.hit_ratio:.3f}, "
            f"squirrel={squirrel.hit_ratio:.3f}",
        )
    )
    if len(flower.hit_ratio_curve) >= 4:
        mid = flower.hit_ratio_curve[len(flower.hit_ratio_curve) // 2][1]
        last = flower.hit_ratio_curve[-1][1]
        checks.append(
            ShapeCheck(
                "fig3_flower_keeps_climbing",
                "Flower-CDN keeps on improving despite failures",
                last >= mid,
                f"flower hit ratio mid-run={mid:.3f}, end={last:.3f}",
            )
        )

    f_fast = cdf_fraction_below(flower.lookup_cdf, 150.0)
    s_slow = 1.0 - cdf_fraction_below(squirrel.lookup_cdf, 1200.0)
    checks.append(
        ShapeCheck(
            "fig4_lookup_distributions",
            "Most Flower queries resolve within 150 ms while most Squirrel "
            "queries take more than 1200 ms",
            f_fast > 0.4 and s_slow > 0.4,
            f"flower <=150ms: {f_fast:.0%} (paper 66%); "
            f"squirrel >1200ms: {s_slow:.0%} (paper 75%)",
        )
    )

    f_near = cdf_fraction_below(flower.transfer_cdf, 100.0)
    s_near = cdf_fraction_below(squirrel.transfer_cdf, 100.0)
    checks.append(
        ShapeCheck(
            "fig5_transfer_distributions",
            "Far more Flower queries are served from within 100 ms",
            f_near > 1.5 * s_near,
            f"within 100ms: flower={f_near:.0%} (paper 62%), "
            f"squirrel={s_near:.0%} (paper 22%)",
        )
    )

    lookup_factor = squirrel.mean_lookup_latency_ms / max(
        flower.mean_lookup_latency_ms, 1e-9
    )
    transfer_factor = squirrel.mean_transfer_ms / max(flower.mean_transfer_ms, 1e-9)
    checks.append(
        ShapeCheck(
            "table2_lookup_factor",
            "Flower-CDN drastically reduces lookup latency (paper: up to 12.6x)",
            lookup_factor > 2.0,
            f"measured factor {lookup_factor:.1f}x",
        )
    )
    checks.append(
        ShapeCheck(
            "table2_transfer_factor",
            "Flower-CDN roughly halves the transfer distance (paper: ~2x)",
            transfer_factor > 1.3,
            f"measured factor {transfer_factor:.1f}x",
        )
    )
    return checks


class ComparisonReport:
    """Paper-style side-by-side of one Flower run and one Squirrel run."""

    def __init__(self, flower: ExperimentResult, squirrel: ExperimentResult) -> None:
        if flower.population != squirrel.population:
            raise ValueError(
                "comparison requires runs at the same population "
                f"({flower.population} vs {squirrel.population})"
            )
        self.flower = flower
        self.squirrel = squirrel
        self.checks = shape_checks(flower, squirrel)

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def metric_table(self) -> str:
        rows = [
            [
                "hit ratio",
                f"{self.flower.hit_ratio:.3f}",
                f"{self.squirrel.hit_ratio:.3f}",
                f"{self.flower.hit_ratio / max(self.squirrel.hit_ratio, 1e-9):.2f}x",
            ],
            [
                "lookup latency",
                f"{self.flower.mean_lookup_latency_ms:.0f} ms",
                f"{self.squirrel.mean_lookup_latency_ms:.0f} ms",
                f"{self.squirrel.mean_lookup_latency_ms / max(self.flower.mean_lookup_latency_ms, 1e-9):.1f}x",
            ],
            [
                "transfer distance",
                f"{self.flower.mean_transfer_ms:.0f} ms",
                f"{self.squirrel.mean_transfer_ms:.0f} ms",
                f"{self.squirrel.mean_transfer_ms / max(self.flower.mean_transfer_ms, 1e-9):.1f}x",
            ],
        ]
        return render_table(
            ["metric", "Flower-CDN", "Squirrel", "advantage"],
            rows,
            title=f"P={self.flower.population}, "
            f"{self.flower.duration_hours:.0f} simulated hours",
        )

    def check_table(self) -> str:
        rows = [
            [check.name, "PASS" if check.passed else "FAIL", check.detail]
            for check in self.checks
        ]
        return render_table(
            ["claim", "verdict", "measured"], rows, title="paper shape checks"
        )

    def render(self) -> str:
        return self.metric_table() + "\n\n" + self.check_table()
