"""Extension — weather-coupled throughput via MODCOD adaptation.

Section 6 ends with the observation that attenuation "has to be dealt
with by appropriate design for modulation and error correction schemes
(MODCOD), and trades off bandwidth for reliability" — i.e. weather does
not just fade links, it *shrinks capacity*. This experiment closes that
loop: every radio link's capacity is derated by its DVB-S2(X) capacity
factor at the 99.5th-percentile attenuation, and aggregate max-min
throughput is compared against clear sky.

Expected shape: BP loses a larger share of its throughput than hybrid,
because BP paths traverse many radio links (each independently derated,
often in the tropics) while hybrid transit rides weather-immune ISLs.
"""

from __future__ import annotations

import numpy as np

from repro.atmosphere.weather_capacity import edge_weather_capacity_factors
from repro.core.scenario import Scenario, ScenarioScale, full_scale_requested
from repro.experiments.base import ExperimentResult, register
from repro.flows.routing import route_traffic
from repro.flows.throughput import evaluate_throughput
from repro.network.graph import ConnectivityMode
from repro.reporting.tables import format_summary, format_table

__all__ = ["run"]


@register("ext-modcod")
def run(scale: ScenarioScale | None = None, k: int = 4, exceedance_pct: float = 0.5) -> ExperimentResult:
    """Run this experiment; see the module docstring for the design."""
    scale = scale or (
        ScenarioScale.full()
        if full_scale_requested()
        else ScenarioScale(
            name="modcod-bench",
            num_cities=200,
            num_pairs=800,
            relay_spacing_deg=2.0,
            num_snapshots=1,
        )
    )
    scenario = Scenario.paper_default("starlink", scale)

    rows = []
    data = {}
    graphs = {
        mode: scenario.graph_at(0.0, mode)
        for mode in (ConnectivityMode.BP_ONLY, ConnectivityMode.HYBRID)
    }
    for mode, graph in graphs.items():
        routing = route_traffic(graph, scenario.pairs, k=k)
        clear = evaluate_throughput(
            graph, scenario.pairs, k=k, routing=routing
        ).aggregate_gbps
        factors = edge_weather_capacity_factors(graph, exceedance_pct)
        weather = evaluate_throughput(
            graph,
            scenario.pairs,
            k=k,
            routing=routing,
            edge_capacity_factors=factors,
        ).aggregate_gbps
        radio = graph.edge_kind == 0
        data[mode.value] = {
            "clear_gbps": clear,
            "weather_gbps": weather,
            "retained": weather / clear,
            "mean_radio_factor": float(np.mean(factors[radio])),
            "dead_radio_links": int(np.sum(factors[radio] <= 0.0)),
        }
        rows.append(
            [
                mode.value,
                f"{clear:.0f}",
                f"{weather:.0f}",
                f"{100 * weather / clear:.1f}%",
                f"{data[mode.value]['mean_radio_factor']:.3f}",
            ]
        )

    table = format_table(
        ["mode", "clear sky (Gbps)", f"weather p{exceedance_pct}% (Gbps)", "retained", "mean radio factor"],
        rows,
        title=f"MODCOD weather derating at {exceedance_pct}% exceedance (k={k})",
    )
    headline = {
        "BP throughput retained under weather": round(data["bp"]["retained"], 3),
        "hybrid throughput retained under weather": round(
            data["hybrid"]["retained"], 3
        ),
        "hybrid/BP retention advantage": round(
            data["hybrid"]["retained"] / data["bp"]["retained"], 3
        ),
    }
    return ExperimentResult(
        experiment_id="ext-modcod",
        title="Weather-coupled throughput (MODCOD adaptation)",
        scale_name=scale.name,
        tables=[table, format_summary("Extension headline", headline)],
        data=data,
        headline=headline,
    )
