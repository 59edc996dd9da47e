"""Plain-text tables and report formatting for experiments and benchmarks.

The benchmark harness and ``repro run`` print the same rows, so the format
lives in one place.  No third-party table library is used: the output
has to be readable inside pytest-benchmark captures and CI logs.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Mapping, Optional, Sequence

__all__ = ["format_table", "format_records", "format_kv"]


def _format_cell(value: Any, float_format: str) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, float_format)
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, Any]],
    columns: Optional[Sequence[str]] = None,
    *,
    float_format: str = ".3f",
    title: Optional[str] = None,
) -> str:
    """Render a list of dict rows as an aligned plain-text table.

    Parameters
    ----------
    rows:
        The data; each row is a mapping from column name to value.
    columns:
        Column order (defaults to the keys of the first row).
    float_format:
        ``format()`` spec applied to float cells.
    title:
        Optional title printed above the table.
    """
    rows = list(rows)
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    if columns is None:
        # Union of keys across rows, in order of first appearance, so rows with
        # heterogeneous columns (e.g. E7's two check families) all show up.
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    header = [str(c) for c in columns]
    body = [[_format_cell(row.get(c, ""), float_format) for c in columns] for row in rows]
    widths = [max(len(header[i]), *(len(r[i]) for r in body)) for i in range(len(columns))]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    lines.append("  ".join("-" * widths[i] for i in range(len(columns))))
    for r in body:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(lines)


def format_records(records: Iterable, *, title: Optional[str] = None, float_format: str = ".3f") -> str:
    """Render :class:`~repro.analysis.competitive.CompetitiveRecord` objects via their ``row()`` method."""
    rows = [record.row() for record in records]
    return format_table(rows, title=title, float_format=float_format)


def format_kv(data: Mapping[str, Any], *, title: Optional[str] = None, float_format: str = ".4f") -> str:
    """Render a flat mapping as aligned ``key: value`` lines."""
    lines: List[str] = []
    if title:
        lines.append(title)
    if not data:
        lines.append("(empty)")
        return "\n".join(lines)
    width = max(len(str(k)) for k in data)
    for key, value in data.items():
        lines.append(f"{str(key).ljust(width)} : {_format_cell(value, float_format)}")
    return "\n".join(lines)
