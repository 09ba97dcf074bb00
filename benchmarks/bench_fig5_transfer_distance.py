"""Figure 5: transfer-distance distribution (P = 3000).

Paper's finding: "the percentage of queries served from a distance within
100 ms is 62% for Flower-CDN and 22% for Squirrel" -- locality-aware petals
serve content from nearby providers; Squirrel redirects to random network
locations.

Byte-weighted extension: the paper counts *queries*, but with
heavy-tailed object sizes most of the actual traffic can ride on a few
large transfers.  The second table weights each query by its object's
size under the deterministic size model, answering "what fraction of the
*bytes* travelled within each distance band" -- the view that matters
once transfers are chunked and bandwidth-limited (ISSUE 9).
"""

from benchmarks.conftest import HEADLINE_POPULATION, bench_config, emit_report
from repro.analysis.compare import cdf_fraction_below
from repro.metrics.distribution import TRANSFER_DISTANCE_EDGES
from repro.metrics.report import render_table


def test_fig5_transfer_distance_distribution(benchmark, experiments):
    config = bench_config(HEADLINE_POPULATION)

    def run():
        return (
            experiments.get("flower", config),
            experiments.get("squirrel", config),
        )

    flower, squirrel = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    previous = 0.0
    prev_f = prev_s = 0.0
    for edge in TRANSFER_DISTANCE_EDGES:
        f_below = cdf_fraction_below(flower.transfer_cdf, edge)
        s_below = cdf_fraction_below(squirrel.transfer_cdf, edge)
        label = f"<={edge:g} ms" if previous == 0.0 else f"{previous:g}-{edge:g} ms"
        rows.append([label, f"{f_below - prev_f:.1%}", f"{s_below - prev_s:.1%}"])
        previous, prev_f, prev_s = edge, f_below, s_below
    rows.append([f">{previous:g} ms", f"{1 - prev_f:.1%}", f"{1 - prev_s:.1%}"])

    byte_rows = []
    previous = 0.0
    prev_f = prev_s = 0.0
    for edge in TRANSFER_DISTANCE_EDGES:
        f_below = cdf_fraction_below(flower.transfer_cdf_bytes, edge)
        s_below = cdf_fraction_below(squirrel.transfer_cdf_bytes, edge)
        label = f"<={edge:g} ms" if previous == 0.0 else f"{previous:g}-{edge:g} ms"
        byte_rows.append([label, f"{f_below - prev_f:.1%}", f"{s_below - prev_s:.1%}"])
        previous, prev_f, prev_s = edge, f_below, s_below
    byte_rows.append([f">{previous:g} ms", f"{1 - prev_f:.1%}", f"{1 - prev_s:.1%}"])

    flower_100 = cdf_fraction_below(flower.transfer_cdf, 100.0)
    squirrel_100 = cdf_fraction_below(squirrel.transfer_cdf, 100.0)
    flower_100_bytes = cdf_fraction_below(flower.transfer_cdf_bytes, 100.0)
    squirrel_100_bytes = cdf_fraction_below(squirrel.transfer_cdf_bytes, 100.0)
    emit_report(
        "fig5_transfer_distance",
        render_table(
            ["transfer distance", "Flower-CDN", "Squirrel"],
            rows,
            title=(
                f"Figure 5 -- transfer distance distribution "
                f"(P={config.population})"
            ),
        )
        + "\n\n"
        + render_table(
            ["transfer distance", "Flower-CDN", "Squirrel"],
            byte_rows,
            title=(
                f"Figure 5 (byte-weighted) -- fraction of *bytes* per "
                f"distance band (P={config.population})"
            ),
        )
        + (
            f"\npaper: 62% of Flower vs 22% of Squirrel within 100 ms\n"
            f"measured: {flower_100:.0%} of Flower vs {squirrel_100:.0%} of "
            f"Squirrel within 100 ms"
            f"\nbyte-weighted: {flower_100_bytes:.0%} of Flower bytes vs "
            f"{squirrel_100_bytes:.0%} of Squirrel bytes within 100 ms"
        ),
    )

    # Shape: Flower serves from much closer providers.
    assert flower_100 > 1.5 * squirrel_100
    assert flower.mean_transfer_ms < squirrel.mean_transfer_ms
    # The locality win survives byte-weighting: most of Flower's *traffic*
    # stays close too, not just most of its queries.
    assert flower_100_bytes > 1.5 * squirrel_100_bytes
    assert flower.mean_transfer_bytes_ms < squirrel.mean_transfer_bytes_ms
