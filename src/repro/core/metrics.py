"""Metrics over RTT series: the quantities behind Fig. 2(a) and 2(b).

For each city pair the paper reports, across the day's snapshots:

* the **minimum RTT** (Fig. 2a) — the best the network ever offers;
* the **RTT variation** max-minus-min (Fig. 2b) — how unstable it is.

Distributions across pairs are then compared between BP and hybrid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.pipeline import RttSeries

__all__ = ["PairRttStats", "rtt_stats", "distribution_summary"]


@dataclass(frozen=True)
class PairRttStats:
    """Per-pair RTT statistics over a day of snapshots."""

    min_rtt_ms: np.ndarray
    max_rtt_ms: np.ndarray
    variation_ms: np.ndarray  # max - min
    mean_rtt_ms: np.ndarray
    always_reachable: np.ndarray  # bool per pair

    @property
    def num_pairs(self) -> int:
        return len(self.min_rtt_ms)


def rtt_stats(series: RttSeries) -> PairRttStats:
    """Per-pair min/max/variation over snapshots.

    Pairs unreachable at *every* snapshot get NaN statistics. Pairs
    unreachable at *some* snapshots compute statistics over the finite
    snapshots only, and are flagged not-always-reachable; the variation
    metric is meaningful only for reachable snapshots (the paper's BP
    network with its dense relays keeps pairs reachable essentially
    always, and we track the flag to verify that holds for ours too).
    """
    rtt = series.rtt_ms
    finite = np.isfinite(rtt)
    any_reachable = finite.any(axis=1)

    safe = np.where(finite, rtt, np.nan)
    # Never-reachable pairs would make nanmin/nanmean warn on all-NaN
    # rows; give them a dummy value and stamp NaN back afterwards.
    masked = np.where(any_reachable[:, None], safe, 0.0)
    with np.errstate(invalid="ignore"):
        min_rtt = np.nanmin(masked, axis=1)
        max_rtt = np.nanmax(masked, axis=1)
        mean_rtt = np.nanmean(masked, axis=1)
    min_rtt[~any_reachable] = np.nan
    max_rtt[~any_reachable] = np.nan
    mean_rtt[~any_reachable] = np.nan
    return PairRttStats(
        min_rtt_ms=min_rtt,
        max_rtt_ms=max_rtt,
        variation_ms=max_rtt - min_rtt,
        mean_rtt_ms=mean_rtt,
        always_reachable=finite.all(axis=1),
    )


def distribution_summary(values: np.ndarray, percentiles=(5, 25, 50, 75, 90, 95, 99)) -> dict:
    """Summary statistics of a distribution, ignoring NaNs."""
    clean = np.asarray(values, dtype=float)
    clean = clean[np.isfinite(clean)]
    if len(clean) == 0:
        return {"count": 0}
    summary = {
        "count": int(len(clean)),
        "mean": float(np.mean(clean)),
        "min": float(np.min(clean)),
        "max": float(np.max(clean)),
    }
    for p in percentiles:
        summary[f"p{p}"] = float(np.percentile(clean, p))
    return summary

