"""Ablation benches for the design choices DESIGN.md calls out.

These are not paper tables; they quantify the knobs the paper discusses
qualitatively:

- gossip/keepalive period (section 5.1 freshness-vs-overhead trade-off);
- locality awareness (what the clustered topology + landmark binning buy);
- churn severity (the robustness claim of section 5);
- directory collaboration (section 3.2's "may collaborate");
- PetalUp directory load limit (section 4).
"""

from benchmarks.conftest import emit_report
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.metrics.report import render_table
from repro.net.faults import UniformLossSpec

ABLATION_POPULATION = 180
ABLATION_HOURS = 8.0


def ablation_config(**overrides):
    # Ablations always run at reduced scale (many runs each); REPRO_SCALE
    # only affects the figure/table benches.
    return ExperimentConfig.scaled(
        ABLATION_POPULATION, duration_hours=ABLATION_HOURS, **overrides
    )


def test_ablation_gossip_period(benchmark):
    """Faster gossip keeps indexes fresher under churn but costs messages."""

    def run():
        rows = []
        for period_min in (15.0, 60.0, 120.0):
            result = run_experiment(
                "flower", ablation_config(gossip_period_min=period_min), seed=2
            )
            rows.append(
                [
                    f"{period_min:.0f} min",
                    f"{result.hit_ratio:.3f}",
                    f"{result.outcome_counts.get('miss_failed', 0)}",
                    f"{result.messages_sent:,}",
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_report(
        "ablation_gossip_period",
        render_table(
            ["gossip/keepalive period", "hit ratio", "failed queries", "messages"],
            rows,
            title="ablation -- gossip period (freshness vs overhead)",
        ),
    )
    messages = [int(row[3].replace(",", "")) for row in rows]
    assert messages[0] > messages[-1]  # faster gossip costs more messages


def test_ablation_locality(benchmark):
    """Remove the latency structure: locality awareness has nothing to
    exploit and Flower's transfer-distance advantage should collapse."""

    def run():
        clustered = run_experiment("flower", ablation_config(), seed=2)
        uniform = run_experiment(
            "flower", ablation_config(topology="uniform"), seed=2
        )
        return clustered, uniform

    clustered, uniform = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_report(
        "ablation_locality",
        render_table(
            ["topology", "hit ratio", "lookup", "transfer"],
            [
                [
                    "clustered (locality real)",
                    f"{clustered.hit_ratio:.3f}",
                    f"{clustered.mean_lookup_latency_ms:.0f} ms",
                    f"{clustered.mean_transfer_ms:.0f} ms",
                ],
                [
                    "uniform (no structure)",
                    f"{uniform.hit_ratio:.3f}",
                    f"{uniform.mean_lookup_latency_ms:.0f} ms",
                    f"{uniform.mean_transfer_ms:.0f} ms",
                ],
            ],
            title="ablation -- what locality awareness is worth",
        ),
    )
    assert clustered.mean_transfer_ms < uniform.mean_transfer_ms


def test_ablation_churn_severity(benchmark):
    """Section 5's claim: the maintenance protocols keep Flower-CDN useful
    even under much harsher churn than the headline m = 60 min."""

    def run():
        rows = []
        for uptime in (120.0, 60.0, 30.0, 15.0):
            result = run_experiment(
                "flower", ablation_config(mean_uptime_min=uptime), seed=2
            )
            rows.append(
                [
                    f"{uptime:.0f} min",
                    f"{result.hit_ratio:.3f}",
                    f"{result.outcome_counts.get('miss_failed', 0) / result.queries:.1%}",
                    result.arrivals,
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_report(
        "ablation_churn",
        render_table(
            ["mean uptime", "hit ratio", "failed-query share", "arrivals"],
            rows,
            title="ablation -- churn severity (Flower-CDN)",
        ),
    )
    hit_ratios = [float(row[1]) for row in rows]
    # Degradation under 8x harsher churn stays graceful (no collapse).
    assert hit_ratios[-1] > 0.25 * hit_ratios[0]


def test_ablation_directory_collaboration(benchmark):
    """Section 3.2's optional feature: same-website directories answering
    each other's misses trade lookup latency for hit ratio."""

    def run():
        off = run_experiment("flower", ablation_config(), seed=2)
        on = run_experiment(
            "flower", ablation_config(directory_collaboration=True), seed=2
        )
        return off, on

    off, on = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_report(
        "ablation_collaboration",
        render_table(
            ["collaboration", "hit ratio", "hit_transfer", "lookup", "transfer"],
            [
                [
                    "off (default)",
                    f"{off.hit_ratio:.3f}",
                    off.outcome_counts.get("hit_transfer", 0),
                    f"{off.mean_lookup_latency_ms:.0f} ms",
                    f"{off.mean_transfer_ms:.0f} ms",
                ],
                [
                    "on",
                    f"{on.hit_ratio:.3f}",
                    on.outcome_counts.get("hit_transfer", 0),
                    f"{on.mean_lookup_latency_ms:.0f} ms",
                    f"{on.mean_transfer_ms:.0f} ms",
                ],
            ],
            title="ablation -- directory collaboration (section 3.2)",
        ),
    )
    assert on.hit_ratio > off.hit_ratio
    assert on.outcome_counts.get("hit_transfer", 0) > 0


def test_ablation_petalup_load_limit(benchmark):
    """Section 4: tighter load limits bound directory load at the price of
    more instances; query semantics (hit ratio) stay comparable."""

    def run():
        rows = []
        baseline = run_experiment("flower", ablation_config(), seed=2)
        rows.append(["flower (unbounded)", f"{baseline.hit_ratio:.3f}", "-"])
        for limit in (20, 10, 5):
            result = run_experiment(
                "petalup",
                ablation_config(directory_load_limit=limit, max_instances=8),
                seed=2,
            )
            rows.append(
                [f"petalup limit={limit}", f"{result.hit_ratio:.3f}", limit]
            )
        return rows, baseline

    rows, baseline = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_report(
        "ablation_petalup_limit",
        render_table(
            ["system", "hit ratio", "load limit"],
            rows,
            title="ablation -- PetalUp directory load limit",
        ),
    )
    hit_ratios = [float(row[1]) for row in rows]
    # Splitting must not destroy the hit ratio.
    assert min(hit_ratios[1:]) > 0.6 * hit_ratios[0]


def test_ablation_cache_capacity(benchmark):
    """Beyond the paper: it assumes unbounded peer caches (footnote 1).
    Bounding them with LRU replacement shows how much of the hit ratio the
    assumption is worth -- and that the protocols stay correct when
    directories must continuously unlearn evicted copies."""

    def run():
        rows = []
        for capacity in (None, 50, 20, 10):
            result = run_experiment(
                "flower",
                ablation_config(peer_cache_capacity=capacity),
                seed=2,
            )
            rows.append(
                [
                    "unbounded (paper)" if capacity is None else f"{capacity} objects",
                    f"{result.hit_ratio:.3f}",
                    f"{result.mean_transfer_ms:.0f} ms",
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_report(
        "ablation_cache_capacity",
        render_table(
            ["peer cache", "hit ratio", "transfer"],
            rows,
            title="ablation -- bounded caches with LRU replacement",
        ),
    )
    hit_ratios = [float(row[1]) for row in rows]
    # smaller caches cannot help the hit ratio...
    assert hit_ratios[0] >= hit_ratios[-1] - 0.02
    # ...but even tiny caches keep the system functional
    assert hit_ratios[-1] > 0.1


def test_ablation_message_loss(benchmark):
    """Beyond the paper: robustness to a *lossy* network (the paper's churn
    is crash-only; real deployments also lose packets).  Flower-CDN's
    maintenance is timeout-driven, so loss raises failure-detection noise
    but must not collapse the system."""

    def run():
        rows = []
        for loss in (0.0, 0.02, 0.05, 0.10):
            schedule = (UniformLossSpec(loss),) if loss else ()
            result = run_experiment(
                "flower", ablation_config(fault_schedule=schedule), seed=2
            )
            rows.append(
                [
                    f"{loss:.0%}",
                    f"{result.hit_ratio:.3f}",
                    f"{result.outcome_counts.get('miss_failed', 0) / result.queries:.1%}",
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_report(
        "ablation_message_loss",
        render_table(
            ["message loss", "hit ratio", "failed-query share"],
            rows,
            title="ablation -- lossy network (Flower-CDN)",
        ),
    )
    hit_ratios = [float(row[1]) for row in rows]
    assert hit_ratios[-1] > 0.4 * hit_ratios[0]  # graceful degradation
