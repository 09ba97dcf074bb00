"""Dependency-free terminal charts.

Good enough to *read* the paper's figures in a terminal or a CI log:
multi-series line charts on a character grid (Figure 3).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.errors import ReproError

#: Glyphs assigned to successive series of a line chart.
SERIES_GLYPHS = "*o+x@#"


def line_chart(
    series: Dict[str, Sequence[Tuple[float, float]]],
    width: int = 60,
    height: int = 16,
    title: str = "",
    y_label: str = "",
    x_label: str = "",
) -> str:
    """Render named (x, y) series on one character grid.

    Args:
        series: name -> [(x, y), ...]; all series share the axes.
        width/height: plot area size in characters.
        title / y_label / x_label: decorations.
    """
    if not series or all(not points for points in series.values()):
        raise ReproError("line_chart needs at least one non-empty series")
    if width < 10 or height < 4:
        raise ReproError("chart too small to draw")
    all_points = [p for points in series.values() for p in points]
    xs = [x for x, __ in all_points]
    ys = [y for __, y in all_points]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0

    grid = [[" "] * width for __ in range(height)]
    for index, (name, points) in enumerate(series.items()):
        glyph = SERIES_GLYPHS[index % len(SERIES_GLYPHS)]
        for x, y in points:
            col = int((x - x_min) / x_span * (width - 1))
            row = height - 1 - int((y - y_min) / y_span * (height - 1))
            grid[row][col] = glyph

    lines: List[str] = []
    if title:
        lines.append(title)
    if y_label:
        lines.append(y_label)
    for row_index, row in enumerate(grid):
        if row_index == 0:
            label = f"{y_max:8.3f} |"
        elif row_index == height - 1:
            label = f"{y_min:8.3f} |"
        else:
            label = " " * 9 + "|"
        lines.append(label + "".join(row))
    lines.append(" " * 9 + "+" + "-" * width)
    left = f"{x_min:g}"
    right = f"{x_max:g}"
    padding = width - len(left) - len(right)
    lines.append(" " * 10 + left + " " * max(padding, 1) + right)
    if x_label:
        lines.append(" " * 10 + x_label)
    legend = "   ".join(
        f"{SERIES_GLYPHS[i % len(SERIES_GLYPHS)]} {name}"
        for i, name in enumerate(series)
    )
    lines.append("          " + legend)
    return "\n".join(lines)
