"""Result records of one experiment run.

:class:`ExperimentResult` is a plain, JSON-serializable summary: the three
paper metrics, the outcome breakdown, the hit-ratio-over-time curve
(Fig. 3) and the latency / distance distributions (Figs. 4 and 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Any, Dict, List, Tuple

from repro.metrics.collector import HIT_TABLE, SERVED_TABLE, MetricsCollector
from repro.metrics.distribution import Distribution, WeightedDistribution
from repro.metrics.timeseries import RatioSeries
from repro.sim.clock import HOUR


@dataclass
class ExperimentResult:
    """Summary of one run.

    Attributes:
        protocol: "flower", "petalup" or "squirrel".
        seed: master RNG seed of the run.
        population: the configured mean population P.
        duration_hours: simulated horizon.
        queries: total queries issued.
        hit_ratio: fraction served from the P2P system (paper metric 1).
        mean_lookup_latency_ms: paper metric 2 (mean over all queries).
        mean_transfer_ms: paper metric 3 (mean over all queries).
        outcome_counts: queries per outcome kind.
        hit_ratio_curve: (hour, cumulative hit ratio) points (Figure 3).
        lookup_cdf / transfer_cdf: (ms, cumulative fraction) points
            (Figures 4 and 5).
        transfer_cdf_bytes: (ms, cumulative *byte* fraction) points --
            the transfer-distance CDF weighted by object size under the
            heavy-tailed size model (Figure 5, byte-weighted view).
        mean_transfer_bytes_ms: byte-weighted mean transfer distance.
        events_executed / messages_sent: simulator effort accounting.
        arrivals / departures: churn volume.
        extra: protocol-specific counters (directory count, ring size, ...).
    """

    protocol: str
    seed: int
    population: int
    duration_hours: float
    queries: int
    hit_ratio: float
    mean_lookup_latency_ms: float
    mean_transfer_ms: float
    outcome_counts: Dict[str, int]
    hit_ratio_curve: List[Tuple[float, float]]
    lookup_cdf: List[Tuple[float, float]]
    transfer_cdf: List[Tuple[float, float]]
    events_executed: int = 0
    messages_sent: int = 0
    arrivals: int = 0
    departures: int = 0
    transfer_cdf_bytes: List[Tuple[float, float]] = field(default_factory=list)
    mean_transfer_bytes_ms: float = 0.0
    extra: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_metrics(
        cls,
        protocol: str,
        seed: int,
        population: int,
        duration_hours: float,
        metrics: MetricsCollector,
        curve_window_hours: float = 1.0,
        **kwargs: Any,
    ) -> "ExperimentResult":
        """Build the summary from a populated metrics collector."""
        rows = metrics.records
        # Both views below cover served queries only; failed and shed
        # records are ledger bookkeeping.  Each reads just its columns.
        served = rows.mask(SERVED_TABLE)
        series = RatioSeries()
        for time, hit in zip(
            compress(rows.time, served), compress(rows.mask(HIT_TABLE), served)
        ):
            series.observe(time, hit == 1)
        horizon = duration_hours * HOUR
        window = curve_window_hours * HOUR
        curve = [
            (point.time / HOUR, point.ratio)
            for point in (
                series.cumulative(window, horizon) if horizon >= window else []
            )
        ]
        lookup = Distribution(metrics.lookup_latencies())
        transfer = Distribution(metrics.transfer_distances())
        # Byte-weighted transfer view: each served record weighted by its
        # object's size under the (deterministic, seed-keyed) heavy-tailed
        # model.  Computed post-hoc so latency-only runs get it too.
        from repro.workload.objectsize import ObjectSizeModel

        sizes = ObjectSizeModel(seed=seed)
        weighted = WeightedDistribution(
            (transfer_ms, sizes.size_bytes((website, index)))
            for transfer_ms, website, index in compress(
                zip(rows.transfer_ms, rows.website, rows.object_index), served
            )
        )
        return cls(
            protocol=protocol,
            seed=seed,
            population=population,
            duration_hours=duration_hours,
            queries=len(metrics),
            hit_ratio=metrics.hit_ratio(),
            mean_lookup_latency_ms=metrics.mean_lookup_latency_ms(),
            mean_transfer_ms=metrics.mean_transfer_ms(),
            outcome_counts=metrics.outcome_counts(),
            hit_ratio_curve=curve,
            lookup_cdf=lookup.cdf_points(250),
            transfer_cdf=transfer.cdf_points(250),
            transfer_cdf_bytes=weighted.cdf_points(250),
            mean_transfer_bytes_ms=weighted.mean(),
            **kwargs,
        )

    # ------------------------------------------------------------ serialize
    def to_dict(self) -> Dict[str, Any]:
        return {
            "protocol": self.protocol,
            "seed": self.seed,
            "population": self.population,
            "duration_hours": self.duration_hours,
            "queries": self.queries,
            "hit_ratio": self.hit_ratio,
            "mean_lookup_latency_ms": self.mean_lookup_latency_ms,
            "mean_transfer_ms": self.mean_transfer_ms,
            "outcome_counts": dict(self.outcome_counts),
            "hit_ratio_curve": [list(p) for p in self.hit_ratio_curve],
            "lookup_cdf": [list(p) for p in self.lookup_cdf],
            "transfer_cdf": [list(p) for p in self.transfer_cdf],
            "transfer_cdf_bytes": [list(p) for p in self.transfer_cdf_bytes],
            "mean_transfer_bytes_ms": self.mean_transfer_bytes_ms,
            "events_executed": self.events_executed,
            "messages_sent": self.messages_sent,
            "arrivals": self.arrivals,
            "departures": self.departures,
            "extra": dict(self.extra),
        }

    def summary_line(self) -> str:
        """One-line human summary for harness output."""
        return (
            f"{self.protocol:>9}  P={self.population:<5} "
            f"hit={self.hit_ratio:5.3f}  "
            f"lookup={self.mean_lookup_latency_ms:7.1f} ms  "
            f"transfer={self.mean_transfer_ms:6.1f} ms  "
            f"queries={self.queries}"
        )
