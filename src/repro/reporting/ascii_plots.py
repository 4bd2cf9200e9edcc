"""Dependency-free terminal plots: CDF curves, histograms, sparklines.

Experiments render tables; these helpers add visual shape for
humans skimming a terminal — a rough ASCII rendering of the same curves
the paper's figures plot. Pure text, no matplotlib.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ascii_cdf", "ascii_histogram", "sparkline"]

_BLOCKS = " .:-=+*#%@"
_SPARK = "▁▂▃▄▅▆▇█"


def _clean(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float).ravel()
    return arr[np.isfinite(arr)]


def ascii_cdf(
    series: dict[str, np.ndarray],
    width: int = 60,
    height: int = 12,
    title: str | None = None,
) -> str:
    """Plot one or more empirical CDFs as ASCII art.

    Each series gets a marker character (its label's first letter). The
    x-axis spans the pooled data range; y runs 0..1.
    """
    cleaned = {k: np.sort(_clean(v)) for k, v in series.items()}
    cleaned = {k: v for k, v in cleaned.items() if len(v)}
    if not cleaned:
        return (title or "") + "\n(no finite data)"
    lo = min(v[0] for v in cleaned.values())
    hi = max(v[-1] for v in cleaned.values())
    if hi <= lo:
        hi = lo + 1.0

    grid = [[" "] * width for _ in range(height)]
    for label, values in cleaned.items():
        marker = label[0]
        for col in range(width):
            x = lo + (hi - lo) * col / (width - 1)
            fraction = np.searchsorted(values, x, side="right") / len(values)
            row = int(round((1.0 - fraction) * (height - 1)))
            grid[row][col] = marker

    lines = []
    if title:
        lines.append(title)
    for i, row in enumerate(grid):
        y_label = f"{1.0 - i / (height - 1):4.2f} |"
        lines.append(y_label + "".join(row))
    lines.append("     +" + "-" * width)
    lines.append(f"      {lo:<12.4g}{'':^{max(width - 24, 0)}}{hi:>12.4g}")
    legend = "  ".join(f"{k[0]}={k}" for k in cleaned)
    lines.append(f"      [{legend}]")
    return "\n".join(lines)


def ascii_histogram(
    values,
    bins: int = 10,
    width: int = 50,
    title: str | None = None,
) -> str:
    """Horizontal-bar histogram of a sample."""
    clean = _clean(values)
    lines = [title] if title else []
    if len(clean) == 0:
        lines.append("(no finite data)")
        return "\n".join(lines)
    counts, edges = np.histogram(clean, bins=bins)
    peak = max(counts.max(), 1)
    for count, lo, hi in zip(counts, edges[:-1], edges[1:]):
        bar = "#" * int(round(width * count / peak))
        lines.append(f"{lo:10.3g} - {hi:10.3g} |{bar} {count}")
    return "\n".join(lines)


def sparkline(values) -> str:
    """One-line trend of a numeric series (finite values only)."""
    clean = _clean(values)
    if len(clean) == 0:
        return ""
    lo, hi = clean.min(), clean.max()
    if hi <= lo:
        return _SPARK[0] * len(clean)
    indices = ((clean - lo) / (hi - lo) * (len(_SPARK) - 1)).astype(int)
    return "".join(_SPARK[i] for i in indices)
