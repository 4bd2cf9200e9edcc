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

from repro.atmosphere.attenuation import edge_weather_capacity_factors
from repro.core.scenario import Scenario, ScenarioScale
from repro.experiments.base import EXTENSION_SCALE, ExperimentResult, register
from repro.flows.routing import route_traffic
from repro.flows.throughput import evaluate_throughput
from repro.network.graph import ConnectivityMode
from repro.reporting.tables import format_summary, format_table

__all__ = ["run"]

#: Edge-disjoint paths per pair (the paper's k = 4 model).
K = 4
#: Weather exceedance percentage the links are derated at.
EXCEEDANCE_PCT = 0.5


@register("ext-modcod")
def run(scale: ScenarioScale = EXTENSION_SCALE) -> ExperimentResult:
    """Run this experiment; see the module docstring for the design."""
    scenario = Scenario.paper_default("starlink", scale)

    rows = []
    data = {}
    graphs = {
        mode: scenario.graph_at(0.0, mode)
        for mode in (ConnectivityMode.BP_ONLY, ConnectivityMode.HYBRID)
    }
    for mode, graph in graphs.items():
        routing = route_traffic(graph, scenario.pairs, k=K)
        clear = evaluate_throughput(
            graph, scenario.pairs, k=K, routing=routing
        ).aggregate_gbps
        factors = edge_weather_capacity_factors(graph, EXCEEDANCE_PCT)
        weather = evaluate_throughput(
            graph,
            scenario.pairs,
            k=K,
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
        ["mode", "clear sky (Gbps)", f"weather p{EXCEEDANCE_PCT}% (Gbps)", "retained", "mean radio factor"],
        rows,
        title=f"MODCOD weather derating at {EXCEEDANCE_PCT}% exceedance (k={K})",
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
