"""ASCII table and series rendering for the experiment harness.

Benchmarks print the same rows/series the paper reports; these helpers keep
the output aligned and diffable.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["format_table", "format_series"]


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return f"{value:.1f}"
        return f"{value:.4g}" if abs(value) < 1e5 else f"{value:.3e}"
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, object]],
    title: str | None = None,
    columns: Sequence[str] | None = None,
) -> str:
    """Render dict rows as an aligned ASCII table."""
    if not rows:
        return (title + "\n(empty)\n") if title else "(empty)\n"
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    grid = [[_cell(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(str(col)), *(len(line[idx]) for line in grid))
        for idx, col in enumerate(columns)
    ]
    parts: list[str] = []
    if title:
        parts.append(title)
    header = " | ".join(str(col).ljust(width) for col, width in zip(columns, widths))
    parts.append(header)
    parts.append("-+-".join("-" * width for width in widths))
    for line in grid:
        parts.append(" | ".join(cell.rjust(width) for cell, width in zip(line, widths)))
    return "\n".join(parts) + "\n"


def format_series(
    x_label: str,
    x_values: Sequence[object],
    series: Mapping[str, Sequence[object]],
    title: str | None = None,
) -> str:
    """Render one x-column against several named y-columns (a 'figure')."""
    rows = []
    for idx, x in enumerate(x_values):
        row: dict[str, object] = {x_label: x}
        for name, values in series.items():
            row[name] = values[idx] if idx < len(values) else ""
        rows.append(row)
    return format_table(rows, title=title)
