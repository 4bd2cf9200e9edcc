"""Plain-text tables and CDF printouts for experiment results.

Experiments render the same rows/series the paper's figures plot, so a run
can be compared against the paper by eye. No plotting dependencies —
everything renders as aligned ASCII.
"""

from __future__ import annotations

import numpy as np

__all__ = ["format_table", "format_cdf_table", "format_summary"]


def format_table(headers: list[str], rows: list[list], title: str | None = None) -> str:
    """Render rows as an aligned ASCII table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float) or isinstance(cell, np.floating):
        if not np.isfinite(cell):
            return "inf" if cell > 0 else ("-inf" if cell < 0 else "nan")
        magnitude = abs(cell)
        if magnitude != 0 and (magnitude >= 1e5 or magnitude < 1e-3):
            return f"{cell:.3e}"
        return f"{cell:.2f}"
    return str(cell)


def format_cdf_table(
    name: str,
    series: dict[str, np.ndarray],
    percentiles=(5, 10, 25, 50, 75, 90, 95, 99, 100),
) -> str:
    """Print the CDF of several distributions side by side.

    ``series`` maps a column label (e.g. "BP", "Hybrid") to its samples.
    This mirrors reading values off the paper's CDF figures.
    """
    headers = ["percentile"] + list(series)
    rows = []
    for p in percentiles:
        row = [f"p{p}"]
        for values in series.values():
            clean = np.asarray(values, dtype=float)
            clean = clean[np.isfinite(clean)]
            row.append(float(np.percentile(clean, p)) if len(clean) else float("nan"))
        rows.append(row)
    return format_table(headers, rows, title=name)


def format_summary(title: str, mapping: dict) -> str:
    """Render a flat key/value summary block."""
    width = max((len(k) for k in mapping), default=0)
    lines = [title]
    for key, value in mapping.items():
        lines.append(f"  {key.ljust(width)} : {_fmt(value)}")
    return "\n".join(lines)
