"""Figure 4: lookup-latency distribution (P = 3000).

Paper's finding: "66% of our queries are resolved within 150 ms while 75%
of Squirrel's queries take more than 1200 ms" -- Squirrel navigates the
whole DHT per query; Flower-CDN resolves most queries inside the petal.
"""

from benchmarks.conftest import HEADLINE_POPULATION, bench_config, emit_report
from repro.analysis.compare import cdf_fraction_below
from repro.metrics.distribution import LOOKUP_LATENCY_EDGES
from repro.metrics.report import render_table


def test_fig4_lookup_latency_distribution(benchmark, experiments):
    config = bench_config(HEADLINE_POPULATION)

    def run():
        return (
            experiments.get("flower", config),
            experiments.get("squirrel", config),
        )

    flower, squirrel = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    # Rebuild the paper's histogram buckets from the stored CDFs.
    previous = 0.0
    prev_f = prev_s = 0.0
    for edge in LOOKUP_LATENCY_EDGES:
        f_below = cdf_fraction_below(flower.lookup_cdf, edge)
        s_below = cdf_fraction_below(squirrel.lookup_cdf, edge)
        label = f"<={edge:g} ms" if previous == 0.0 else f"{previous:g}-{edge:g} ms"
        rows.append([label, f"{f_below - prev_f:.1%}", f"{s_below - prev_s:.1%}"])
        previous, prev_f, prev_s = edge, f_below, s_below
    rows.append([f">{previous:g} ms", f"{1 - prev_f:.1%}", f"{1 - prev_s:.1%}"])

    emit_report(
        "fig4_lookup_latency",
        render_table(
            ["lookup latency", "Flower-CDN", "Squirrel"],
            rows,
            title=(
                f"Figure 4 -- lookup latency distribution "
                f"(P={config.population})"
            ),
        )
        + (
            f"\npaper: 66% of Flower queries <=150 ms; "
            f"75% of Squirrel queries >1200 ms\n"
            f"measured: {cdf_fraction_below(flower.lookup_cdf, 150.0):.0%} of "
            f"Flower <=150 ms; "
            f"{1 - cdf_fraction_below(squirrel.lookup_cdf, 1200.0):.0%} of "
            f"Squirrel >1200 ms"
        ),
    )

    # Shape: Flower concentrates below 150 ms far more than Squirrel, and
    # the bulk of Squirrel's mass sits beyond 1200 ms.
    assert cdf_fraction_below(flower.lookup_cdf, 150.0) > 2 * cdf_fraction_below(
        squirrel.lookup_cdf, 150.0
    )
    assert (1 - cdf_fraction_below(squirrel.lookup_cdf, 1200.0)) > 0.3
    assert flower.mean_lookup_latency_ms < squirrel.mean_lookup_latency_ms
