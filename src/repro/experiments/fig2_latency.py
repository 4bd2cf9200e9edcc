"""Fig. 2 — minimum RTT (a) and RTT variation (b), BP vs hybrid.

Reproduces the paper's Section 4 headline analysis on Starlink:
distributions across city pairs of the per-pair minimum RTT and
max-minus-min RTT over a day of snapshots.

Paper shapes to reproduce:
* hybrid min RTT <= BP min RTT for every pair, small gap for most pairs,
  large gaps in the tail (paper max gap: 57 ms);
* BP RTT variation substantially exceeds hybrid variation (paper: +80 %
  at the median pair, +422 % at the 95th percentile; BP range up to
  ~100 ms vs under 20 ms hybrid).
"""

from __future__ import annotations

from repro.core.comparison import compare_latency
from repro.core.scenario import Scenario, ScenarioScale
from repro.experiments.base import ExperimentResult, register
from repro.reporting.tables import format_cdf_table, format_summary

__all__ = ["run"]


@register("fig2")
def run(scale: ScenarioScale = ScenarioScale.small()) -> ExperimentResult:
    """Run this experiment; see the module docstring for the design."""
    scenario = Scenario.paper_default("starlink", scale)
    comparison = compare_latency(scenario)

    min_rtt_table = format_cdf_table(
        "Fig 2(a): minimum RTT across city pairs (ms)",
        {
            "BP": comparison.bp_stats.min_rtt_ms,
            "Hybrid": comparison.hybrid_stats.min_rtt_ms,
        },
    )
    variation_table = format_cdf_table(
        "Fig 2(b): RTT variation (max - min) across city pairs (ms)",
        {
            "BP": comparison.bp_stats.variation_ms,
            "Hybrid": comparison.hybrid_stats.variation_ms,
        },
    )
    bp_max, hybrid_max = comparison.variation_at_ms(100)
    bp_p95, hybrid_p95 = comparison.variation_at_ms(95)
    headline = {
        "max min-RTT gap BP-hybrid (ms) [paper: 57]": round(
            comparison.max_min_rtt_gap_ms(), 2
        ),
        "median variation increase (%) [paper: +80]": round(
            comparison.variation_increase_pct(50), 1
        ),
        "p95 variation increase (%) [paper: +422]": round(
            comparison.variation_increase_pct(95), 1
        ),
        "BP variation max (ms) [paper: ~100]": round(bp_max, 2),
        "hybrid variation max (ms) [paper: <20]": round(hybrid_max, 2),
        "BP variation p95 (ms)": round(bp_p95, 2),
        "hybrid variation p95 (ms)": round(hybrid_p95, 2),
        "BP reachable fraction": round(comparison.bp_series.reachable_fraction(), 4),
        "hybrid reachable fraction": round(
            comparison.hybrid_series.reachable_fraction(), 4
        ),
    }
    summary_block = format_summary("Section 4 headline metrics", headline)
    return ExperimentResult(
        experiment_id="fig2",
        title="Latency and its variability (BP vs hybrid)",
        scale_name=scale.name,
        tables=[min_rtt_table, variation_table, summary_block],
        data={
            "bp_min_rtt_ms": comparison.bp_stats.min_rtt_ms,
            "hybrid_min_rtt_ms": comparison.hybrid_stats.min_rtt_ms,
            "bp_variation_ms": comparison.bp_stats.variation_ms,
            "hybrid_variation_ms": comparison.hybrid_stats.variation_ms,
        },
        headline=headline,
    )
