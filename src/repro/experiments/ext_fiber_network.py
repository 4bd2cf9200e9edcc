"""Extension — Section 8 quantified: fiber augmentation as a network feature.

Fig. 11 only illustrates coverage cones. This experiment actually adds
terrestrial fiber edges between nearby city GTs (see
:mod:`repro.network.fiber`) and measures the paper's conjecture that
*"distributed GTs could allow more efficient use of contended
ground-satellite spectrum"*.

Finding worth recording: under the paper's own routing model (k
edge-disjoint **shortest** paths + max-min), adding fiber is roughly
throughput-neutral and can even mildly *hurt* — fiber attracts flows
toward shared metro up-links (a Braess-flavoured effect). Latency, by
contrast, provably never gets worse (superset network). This quantifies
the paper's closing caveat that harvesting fiber/BP augmentation gains
needs smarter, load-aware routing ("exploration of superior routing
schemes is left to future work").
"""

from __future__ import annotations

import numpy as np

from repro.core.pipeline import pair_rtts_on_graph
from repro.core.scenario import Scenario, ScenarioScale
from repro.experiments.base import EXTENSION_SCALE, ExperimentResult, register
from repro.flows.throughput import evaluate_throughput
from repro.network.graph import ConnectivityMode
from repro.reporting.tables import format_summary, format_table

__all__ = ["run", "FIBER_RADII_KM"]

FIBER_RADII_KM = (200.0, 500.0)

#: Edge-disjoint paths per pair (the paper's k = 4 model).
K = 4


@register("ext-fiber")
def run(scale: ScenarioScale = EXTENSION_SCALE) -> ExperimentResult:
    """Run this experiment; see the module docstring for the design."""
    base = Scenario.paper_default("starlink", scale)

    rows = []
    data = {}
    latency_data = {}
    for mode in (ConnectivityMode.HYBRID, ConnectivityMode.BP_ONLY):
        graph = base.graph_at(0.0, mode)
        baseline = evaluate_throughput(graph, base.pairs, k=K).aggregate_gbps
        base_rtts = pair_rtts_on_graph(graph, base.pairs)
        data[(mode.value, None)] = baseline
        rows.append([mode.value, "none", f"{baseline:.0f}", "1.00x", "0.00"])
        for radius in FIBER_RADII_KM:
            # Assembly-only variant: fiber radii sweep over shared frames.
            scenario = base.with_assembly(fiber_max_km=radius)
            fiber_graph = scenario.graph_at(0.0, mode)
            augmented = evaluate_throughput(
                fiber_graph, scenario.pairs, k=K
            ).aggregate_gbps
            fiber_rtts = pair_rtts_on_graph(fiber_graph, scenario.pairs)
            both = np.isfinite(base_rtts) & np.isfinite(fiber_rtts)
            rtt_improvement = (
                float(np.median(base_rtts[both] - fiber_rtts[both]))
                if both.any()
                else float("nan")
            )
            data[(mode.value, radius)] = augmented
            latency_data[(mode.value, radius)] = rtt_improvement
            rows.append(
                [
                    mode.value,
                    f"{radius:.0f} km",
                    f"{augmented:.0f}",
                    f"{augmented / baseline:.2f}x",
                    f"{rtt_improvement:.2f}",
                ]
            )

    table = format_table(
        ["mode", "fiber radius", "throughput (Gbps)", "vs no fiber", "median RTT gain (ms)"],
        rows,
        title=f"Fiber augmentation: throughput and latency (k={K})",
    )
    headline = {
        "hybrid throughput ratio at 500 km fiber (SP routing, ~1.0 expected)": round(
            data[("hybrid", 500.0)] / data[("hybrid", None)], 3
        ),
        "BP throughput ratio at 500 km fiber": round(
            data[("bp", 500.0)] / data[("bp", None)], 3
        ),
        "BP median RTT gain at 500 km fiber (ms)": round(
            latency_data[("bp", 500.0)], 3
        ),
    }
    data["latency"] = latency_data
    return ExperimentResult(
        experiment_id="ext-fiber",
        title="Section 8 quantified: fiber-augmented distributed GTs",
        scale_name=scale.name,
        tables=[table, format_summary("Extension headline", headline)],
        data=data,
        headline=headline,
    )
