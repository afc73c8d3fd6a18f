"""Plain-text formatting for experiment reports.

The offline environment has no plotting stack, so every figure in the paper
is emitted as (a) a CSV file and (b) an aligned text table / ASCII chart.
This module provides the table renderer shared by all reports.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

__all__ = ["format_count", "format_float", "render_table"]


def format_float(value: float) -> str:
    """Format a float compactly (three decimals): trims trailing zeros,
    keeps magnitude."""
    if value != value:  # NaN
        return "nan"
    if abs(value) >= 1e6 or (value != 0 and abs(value) < 1e-3):
        return f"{value:.3e}"
    text = f"{value:.3f}".rstrip("0").rstrip(".")
    return text if text not in ("", "-") else "0"

def format_count(value: int) -> str:
    """Format an integer with thousands separators."""
    return f"{value:,}"


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    title: str | None = None,
) -> str:
    """Render an aligned monospaced table.

    Numeric cells are right-aligned, text cells left-aligned.  Floats are
    formatted with :func:`format_float`.
    """
    rendered_rows: list[list[str]] = []
    for row in rows:
        cells: list[str] = []
        for cell in row:
            if isinstance(cell, bool):
                cells.append(str(cell))
            elif isinstance(cell, float):
                cells.append(format_float(cell))
            elif isinstance(cell, int):
                cells.append(format_count(cell))
            else:
                cells.append(str(cell))
        rendered_rows.append(cells)

    widths = [len(h) for h in headers]
    for cells in rendered_rows:
        for i, cell in enumerate(cells):
            widths[i] = max(widths[i], len(cell))

    def fmt_line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append(fmt_line(headers))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt_line(cells) for cells in rendered_rows)
    return "\n".join(lines)
