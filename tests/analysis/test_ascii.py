"""Unit tests for terminal charts."""

import pytest

from repro.analysis.ascii import line_chart
from repro.errors import ReproError


class TestLineChart:
    def test_requires_data(self):
        with pytest.raises(ReproError):
            line_chart({})
        with pytest.raises(ReproError):
            line_chart({"a": []})

    def test_requires_reasonable_size(self):
        with pytest.raises(ReproError):
            line_chart({"a": [(0, 0)]}, width=2)
        with pytest.raises(ReproError):
            line_chart({"a": [(0, 0)]}, height=2)

    def test_renders_title_axis_and_legend(self):
        chart = line_chart(
            {"flower": [(0, 0.1), (12, 0.7)], "squirrel": [(0, 0.3), (12, 0.5)]},
            title="Figure 3",
            x_label="hours",
        )
        assert "Figure 3" in chart
        assert "hours" in chart
        assert "* flower" in chart
        assert "o squirrel" in chart
        assert "0.700" in chart  # y max label

    def test_extremes_are_plotted(self):
        chart = line_chart({"s": [(0, 0.0), (10, 1.0)]}, width=20, height=8)
        rows = [line for line in chart.splitlines() if "|" in line]
        body = [row.split("|", 1)[1] for row in rows]
        assert "*" in body[0]      # maximum in the top row
        assert "*" in body[-1]     # minimum in the bottom row

    def test_flat_series_does_not_crash(self):
        chart = line_chart({"s": [(0, 0.5), (5, 0.5)]})
        assert "*" in chart

    def test_many_series_cycle_glyphs(self):
        series = {f"s{i}": [(0, i), (1, i + 1)] for i in range(8)}
        chart = line_chart(series)
        assert "* s0" in chart and "* s6" in chart  # glyphs wrap around
