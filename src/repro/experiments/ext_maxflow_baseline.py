"""Extension — reproducing the Section 3 critique of the lax max-flow model.

The paper faults prior work [13] for estimating throughput with "an
extremely lax model, where traffic entering the constellation could
exit anywhere, treating the entire network as one maximum flow instance
with many sources and one large sink, instead of imposing any
constraints on the destinations of traffic flows".

This experiment computes both numbers on the same snapshot:

* the **lax bound** (:func:`repro.flows.maxflow.lax_max_flow_bps`);
* the paper's **demand-respecting** max-min fair throughput over
  k edge-disjoint shortest paths.

Expected shape: the lax bound sits far above the routed number (traffic
"exits anywhere", typically at a nearby sink), and it *compresses* the
hybrid-vs-BP ratio — the distortion that motivated the paper's model.
"""

from __future__ import annotations

from repro.core.scenario import Scenario, ScenarioScale
from repro.experiments.base import EXTENSION_SCALE, ExperimentResult, register
from repro.flows.maxflow import lax_max_flow_bps
from repro.flows.throughput import evaluate_throughput
from repro.network.graph import ConnectivityMode
from repro.reporting.tables import format_summary, format_table

__all__ = ["run"]

#: Edge-disjoint paths per pair (the paper's k = 4 model).
K = 4


@register("ext-maxflow")
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
        routed = evaluate_throughput(graph, scenario.pairs, k=K).aggregate_gbps
        lax = lax_max_flow_bps(graph, scenario.pairs) / 1e9
        data[mode.value] = {"routed_gbps": routed, "lax_gbps": lax}
        rows.append(
            [mode.value, f"{routed:.0f}", f"{lax:.0f}", f"{lax / routed:.2f}x"]
        )

    lax_ratio = data["hybrid"]["lax_gbps"] / data["bp"]["lax_gbps"]
    routed_ratio = data["hybrid"]["routed_gbps"] / data["bp"]["routed_gbps"]
    table = format_table(
        ["mode", f"routed max-min k={K} (Gbps)", "lax max-flow (Gbps)", "inflation"],
        rows,
        title="Lax any-sink max-flow vs demand-respecting throughput",
    )
    headline = {
        "hybrid/BP under the lax model": round(lax_ratio, 2),
        "hybrid/BP under the paper's model": round(routed_ratio, 2),
        "lax model inflates BP throughput by": f"{data['bp']['lax_gbps'] / data['bp']['routed_gbps']:.1f}x",
    }
    return ExperimentResult(
        experiment_id="ext-maxflow",
        title="Section 3 critique: the lax max-flow baseline",
        scale_name=scale.name,
        tables=[table, format_summary("Extension headline", headline)],
        data=data,
        headline=headline,
    )
