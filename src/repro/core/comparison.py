"""The paper's contribution: BP-vs-hybrid comparison across metrics.

:func:`compare_latency` runs the Section 4 analysis (RTT and its
variability); the headline numbers the paper derives from it — the
median/95th-percentile variation increase from eschewing ISLs and the
maximum min-RTT gap — come out of :class:`LatencyComparison`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.metrics import PairRttStats, distribution_summary, rtt_stats
from repro.core.pipeline import RttSeries, compute_rtt_series_multi
from repro.core.scenario import Scenario
from repro.network.graph import ConnectivityMode

__all__ = ["LatencyComparison", "compare_latency"]


@dataclass(frozen=True)
class LatencyComparison:
    """Section 4 results for one scenario."""

    scenario: Scenario
    bp_series: RttSeries
    hybrid_series: RttSeries
    bp_stats: PairRttStats
    hybrid_stats: PairRttStats

    def min_rtt_gap_ms(self) -> np.ndarray:
        """Per-pair BP-minus-hybrid minimum RTT (>= 0 up to noise)."""
        return self.bp_stats.min_rtt_ms - self.hybrid_stats.min_rtt_ms

    def max_min_rtt_gap_ms(self) -> float:
        """The paper's "maximum difference" headline (57 ms at full scale)."""
        gaps = self.min_rtt_gap_ms()
        gaps = gaps[np.isfinite(gaps)]
        return float(np.max(gaps)) if len(gaps) else float("nan")

    def variation_at_ms(self, percentile: float) -> tuple[float, float]:
        """BP and hybrid RTT variation (ms) at a pair percentile (100: max).

        Pairs never reachable are left out; both read NaN when either
        mode has no reachable pair.
        """
        bp, hy = (
            stats.variation_ms[np.isfinite(stats.variation_ms)]
            for stats in (self.bp_stats, self.hybrid_stats)
        )
        if len(bp) == 0 or len(hy) == 0:
            return float("nan"), float("nan")
        return float(np.percentile(bp, percentile)), float(np.percentile(hy, percentile))

    def variation_increase_pct(self, percentile: float) -> float:
        """How much more RTT varies without ISLs, at a pair percentile.

        The paper reports +80 % at the median pair and +422 % at the
        95th percentile. Computed as the relative increase of the BP
        variation distribution over the hybrid one at the given
        percentile.
        """
        bp_q, hy_q = self.variation_at_ms(percentile)
        if np.isnan(bp_q):
            return float("nan")
        if hy_q <= 0:
            return float("inf") if bp_q > 0 else 0.0
        return 100.0 * (bp_q - hy_q) / hy_q

    def summary(self) -> dict:
        """All headline numbers in one dict (used by EXPERIMENTS.md)."""
        return {
            "bp_min_rtt": distribution_summary(self.bp_stats.min_rtt_ms),
            "hybrid_min_rtt": distribution_summary(self.hybrid_stats.min_rtt_ms),
            "bp_variation": distribution_summary(self.bp_stats.variation_ms),
            "hybrid_variation": distribution_summary(self.hybrid_stats.variation_ms),
            "max_min_rtt_gap_ms": self.max_min_rtt_gap_ms(),
            "variation_increase_median_pct": self.variation_increase_pct(50),
            "variation_increase_p95_pct": self.variation_increase_pct(95),
        }


def compare_latency(scenario: Scenario, progress=None) -> LatencyComparison:
    """Run the full Section 4 comparison (both modes, all snapshots).

    Both modes sweep together (time-outer, mode-inner), so each
    snapshot's geometry frame — propagation plus visibility queries —
    is computed once and assembled twice.
    """
    series = compute_rtt_series_multi(
        scenario,
        [ConnectivityMode.BP_ONLY, ConnectivityMode.HYBRID],
        progress=progress,
    )
    bp_series = series[ConnectivityMode.BP_ONLY]
    hybrid_series = series[ConnectivityMode.HYBRID]
    return LatencyComparison(
        scenario=scenario,
        bp_series=bp_series,
        hybrid_series=hybrid_series,
        bp_stats=rtt_stats(bp_series),
        hybrid_stats=rtt_stats(hybrid_series),
    )
