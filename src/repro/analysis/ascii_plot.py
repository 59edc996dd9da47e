"""Minimal ASCII plotting for experiment reports (no matplotlib dependency).

The paper has no figures; the scaling experiments still want to *show* how the
measured competitive ratio grows with the instance parameters next to the
polylog bound, and a terminal-friendly scatter/line rendering is enough for
experiment reports and benchmark output.
"""

from __future__ import annotations

import math
from typing import List, Mapping, Optional, Sequence, Tuple

__all__ = ["ascii_line_plot", "ascii_series_table"]


def ascii_line_plot(
    series: Mapping[str, Sequence[Tuple[float, float]]],
    *,
    width: int = 64,
    height: int = 16,
    title: Optional[str] = None,
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Render one or more ``(x, y)`` series as an ASCII scatter plot.

    Each series gets its own marker character; axes are linear and labelled
    with their min/max values.
    """
    markers = "*o+x#@%&"
    points: List[Tuple[float, float, str]] = []
    for index, (name, data) in enumerate(series.items()):
        marker = markers[index % len(markers)]
        for x, y in data:
            if math.isfinite(x) and math.isfinite(y):
                points.append((float(x), float(y), marker))
    if not points:
        return (title or "") + "\n(no data)"

    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0

    grid = [[" " for _ in range(width)] for _ in range(height)]
    for x, y, marker in points:
        col = int(round((x - x_min) / x_span * (width - 1)))
        row = int(round((y - y_min) / y_span * (height - 1)))
        grid[height - 1 - row][col] = marker

    lines: List[str] = []
    if title:
        lines.append(title)
    legend = "  ".join(
        f"{markers[i % len(markers)]}={name}" for i, name in enumerate(series.keys())
    )
    lines.append(legend)
    lines.append(f"{y_label}: [{y_min:.3g}, {y_max:.3g}]   {x_label}: [{x_min:.3g}, {x_max:.3g}]")
    lines.append("+" + "-" * width + "+")
    for row in grid:
        lines.append("|" + "".join(row) + "|")
    lines.append("+" + "-" * width + "+")
    return "\n".join(lines)


def ascii_series_table(
    x_values: Sequence[float],
    series: Mapping[str, Sequence[float]],
    *,
    x_name: str = "x",
    float_format: str = ".3f",
    title: Optional[str] = None,
) -> str:
    """Render aligned columns ``x, series1, series2, ...`` (the "figure as a table")."""
    names = list(series.keys())
    header = [x_name] + names
    rows: List[List[str]] = []
    for i, x in enumerate(x_values):
        row = [format(float(x), "g")]
        for name in names:
            values = series[name]
            row.append(format(float(values[i]), float_format) if i < len(values) else "")
        rows.append(row)
    widths = [max(len(header[c]), *(len(r[c]) for r in rows)) if rows else len(header[c]) for c in range(len(header))]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(header[c].ljust(widths[c]) for c in range(len(header))))
    lines.append("  ".join("-" * widths[c] for c in range(len(header))))
    for r in rows:
        lines.append("  ".join(r[c].ljust(widths[c]) for c in range(len(header))))
    return "\n".join(lines)
