"""Extension — Section 7 quantified: GSO arc avoidance hits BP harder.

The paper argues (without numbers) that GSO arc-avoidance hurts BP
connectivity much more than ISL connectivity: BP must transit GTs near
the Equator for any cross-hemisphere traffic, and those GTs lose a large
part of their sky, while hybrid paths only expose their endpoints.

This experiment applies the Starlink separation policy (22 degrees) to
every radio link and measures, for cross-equatorial city pairs, the
min-RTT inflation and reachability loss under BP versus hybrid.
"""

from __future__ import annotations

import numpy as np

from repro.constants import STARLINK_GSO_SEPARATION_DEG
from repro.core.pipeline import pair_rtts_on_graph
from repro.core.scenario import Scenario, ScenarioScale
from repro.experiments.base import ExperimentResult, register
from repro.ground.cities import City
from repro.network.graph import ConnectivityMode, GsoProtectionPolicy
from repro.reporting.tables import format_summary, format_table

__all__ = ["run", "cross_equatorial_pairs"]


def cross_equatorial_pairs(scenario: Scenario):
    """The subset of the scenario's traffic matrix crossing the Equator."""
    cities: tuple[City, ...] = scenario.ground.cities
    return [
        pair
        for pair in scenario.pairs
        if cities[pair.a].lat_deg * cities[pair.b].lat_deg < 0
    ]


@register("ext-gso")
def run(scale: ScenarioScale = ScenarioScale.small()) -> ExperimentResult:
    """Run this experiment; see the module docstring for the design."""
    base = Scenario.paper_default("starlink", scale)
    pairs = cross_equatorial_pairs(base)
    if not pairs:
        raise RuntimeError("no cross-equatorial pairs at this scale")
    policy = GsoProtectionPolicy(STARLINK_GSO_SEPARATION_DEG)
    # Assembly-only variant: shares the base scenario's engine, so the
    # GSO-protected graphs reuse its held t = 0 geometry frame.
    protected = base.with_assembly(gso_policy=policy)

    rows = []
    data = {}
    for mode in (ConnectivityMode.BP_ONLY, ConnectivityMode.HYBRID):
        rtt_free = pair_rtts_on_graph(base.graph_at(0.0, mode), pairs)
        rtt_gso = pair_rtts_on_graph(protected.graph_at(0.0, mode), pairs)
        both = np.isfinite(rtt_free) & np.isfinite(rtt_gso)
        lost = int(np.sum(np.isfinite(rtt_free) & ~np.isfinite(rtt_gso)))
        inflation = (
            float(np.median(rtt_gso[both] - rtt_free[both])) if both.any() else np.nan
        )
        worst = float(np.max(rtt_gso[both] - rtt_free[both])) if both.any() else np.nan
        data[mode.value] = {
            "median_inflation_ms": inflation,
            "worst_inflation_ms": worst,
            "pairs_lost": lost,
            "pairs": len(pairs),
        }
        rows.append(
            [mode.value, len(pairs), f"{inflation:.2f}", f"{worst:.2f}", lost]
        )

    table = format_table(
        ["mode", "cross-eq pairs", "median RTT inflation (ms)", "worst (ms)", "pairs lost"],
        rows,
        title="GSO arc avoidance (22 deg separation) on cross-equatorial pairs",
    )
    headline = {
        "BP median inflation (ms)": round(data["bp"]["median_inflation_ms"], 2),
        "hybrid median inflation (ms)": round(data["hybrid"]["median_inflation_ms"], 2),
        "BP pairs lost": data["bp"]["pairs_lost"],
        "hybrid pairs lost": data["hybrid"]["pairs_lost"],
    }
    return ExperimentResult(
        experiment_id="ext-gso",
        title="Section 7 quantified: GSO arc avoidance, BP vs hybrid",
        scale_name=scale.name,
        tables=[table, format_summary("Extension headline", headline)],
        data=data,
        headline=headline,
    )
