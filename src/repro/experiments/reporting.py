"""Plain-text table formatting for the experiment drivers and benchmarks."""

from __future__ import annotations

from typing import Sequence

__all__ = ["format_table"]


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str | None = None) -> str:
    """Render a list of rows as an aligned plain-text table."""
    headers = [str(h) for h in headers]
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row length does not match header length")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)

