"""Plain-text table rendering for benchmark output.

The harness prints each figure's data as an aligned text table (the
"same rows/series the paper reports"), keeping the output greppable and
diff-able in CI logs.
"""

from __future__ import annotations

from collections.abc import Sequence


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
    float_format: str = "{:.4f}",
) -> str:
    """Render rows as an aligned monospace table.

    Args:
        headers: column names.
        rows: row values; floats are formatted with ``float_format``.
        title: optional title line.
        float_format: format spec applied to float cells.
    """
    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            return float_format.format(cell)
        return str(cell)

    text_rows = [[fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in text_rows)) if text_rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)

