"""Plain-text table rendering for benchmark output.

The claim rows and benchmark studies print paper-shaped tables
(Table 1, Table 2, the Figure-3 complexity table, ...) to stdout; this
module is the one formatter they share.
"""

from __future__ import annotations

from typing import Any, List, Sequence


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3g}"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def render_table(headers: Sequence[str], rows: Sequence[Sequence[Any]], title: str = "") -> str:
    """Render an aligned ASCII table."""
    formatted: List[List[str]] = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in formatted:
        if len(row) != len(headers):
            raise ValueError("row arity does not match headers")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(width) for cell, width in zip(cells, widths))

    separator = "-+-".join("-" * width for width in widths)
    parts = []
    if title:
        parts.append(title)
    parts.append(line(list(headers)))
    parts.append(separator)
    parts.extend(line(row) for row in formatted)
    return "\n".join(parts)
