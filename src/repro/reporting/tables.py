"""Plain-text table and series formatting for benchmark output.

The benchmark harness prints the regenerated rows/series of every paper table
and figure; these helpers keep that output aligned and consistent so the
paper-vs-measured comparison (``docs/figures.md``) is easy to eyeball.
"""

from __future__ import annotations

from typing import Mapping, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render rows as a fixed-width text table."""
    columns = [
        [str(header)] + [_fmt(row[i]) for row in rows] for i, header in enumerate(headers)
    ]
    widths = [max(len(cell) for cell in column) for column in columns]
    lines = []
    if title:
        lines.append(title)
    header_line = " | ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            " | ".join(_fmt(value).ljust(w) for value, w in zip(row, widths))
        )
    return "\n".join(lines)


def format_series(series: Mapping[object, float], name: str = "value") -> str:
    """Render a one-dimensional sweep (x -> value) as a two-column table."""
    return format_table(
        ("x", name), [(key, value) for key, value in series.items()]
    )


def format_accuracy_map(
    results: Mapping[str, Mapping[str, float]], title: str | None = None
) -> str:
    """Render {row: {column: value}} accuracy maps (e.g. scheme x axis)."""
    columns = sorted({column for values in results.values() for column in values})
    headers = ["", *columns]
    rows = [
        [row_name, *[values.get(column, float("nan")) for column in columns]]
        for row_name, values in results.items()
    ]
    return format_table(headers, rows, title=title)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
