"""Extension — testing the paper's Section 5 routing conjecture.

"A routing scheme that minimizes the maximum utilization, for example,
can offer higher throughput, albeit at the cost of increased latency.
The exploration of superior routing schemes is left to future work."

We run both routings on the same snapshot:

* the paper's model — k edge-disjoint shortest paths;
* load-aware sequential routing (:mod:`repro.flows.terouting`).

A secondary table revisits the Fig. 5 ISL-capacity question under both
routings. (Measured outcome at bench scales: load-aware routing extracts
substantially more throughput from the *same* ISL capacity — at 3x it
already beats shortest-path routing at 5x — rather than extending the
sweep's rising region; at these contention levels the post-TE bottleneck
is the GT access links.)
"""

from __future__ import annotations

import numpy as np

from repro.constants import SPEED_OF_LIGHT
from repro.core.scenario import Scenario, ScenarioScale
from repro.experiments.base import EXTENSION_SCALE, ExperimentResult, register
from repro.flows.routing import route_traffic
from repro.flows.terouting import route_load_aware
from repro.flows.throughput import evaluate_throughput
from repro.network.graph import ConnectivityMode
from repro.network.links import LinkCapacities
from repro.reporting.tables import format_summary, format_table

__all__ = ["run"]


def _median_rtt_ms(routing) -> float:
    lengths = [s.path.length_m for s in routing.subflows]
    if not lengths:
        return float("nan")
    return float(np.median(lengths)) * 2e3 / SPEED_OF_LIGHT


@register("ext-terouting")
def run(scale: ScenarioScale = EXTENSION_SCALE) -> ExperimentResult:
    """Run this experiment; see the module docstring for the design."""
    scenario = Scenario.paper_default("starlink", scale)
    graph = scenario.graph_at(0.0, ConnectivityMode.HYBRID)

    schemes = {}
    sp1 = route_traffic(graph, scenario.pairs, k=1)
    schemes["shortest path (k=1)"] = sp1
    schemes["edge-disjoint (k=4)"] = route_traffic(graph, scenario.pairs, k=4)
    schemes["load-aware (1 path)"] = route_load_aware(graph, scenario.pairs, gamma=3.0)
    schemes["load-aware (4 paths)"] = route_load_aware(
        graph, scenario.pairs, gamma=3.0, paths_per_pair=4
    )

    rows = []
    data = {}
    for name, routing in schemes.items():
        outcome = evaluate_throughput(graph, scenario.pairs, routing=routing)
        rtt = _median_rtt_ms(routing)
        data[name] = {"gbps": outcome.aggregate_gbps, "median_rtt_ms": rtt}
        rows.append([name, f"{outcome.aggregate_gbps:.0f}", f"{rtt:.1f}"])
    table = format_table(
        ["routing scheme", "throughput (Gbps)", "median path RTT (ms)"],
        rows,
        title="Section 5 conjecture: smarter routing on the hybrid network",
    )

    # Fig. 5 follow-up: does load-aware routing escape the ISL plateau?
    sweep_rows = []
    sweep = {}
    te4 = schemes["load-aware (4 paths)"]
    sp4 = schemes["edge-disjoint (k=4)"]
    for ratio in (3.0, 5.0):
        caps = LinkCapacities().scaled_isl(ratio)
        sweep[("sp", ratio)] = evaluate_throughput(
            graph, scenario.pairs, routing=sp4, capacities=caps
        ).aggregate_gbps
        sweep[("te", ratio)] = evaluate_throughput(
            graph, scenario.pairs, routing=te4, capacities=caps
        ).aggregate_gbps
    sweep_rows.append(
        ["k=4 shortest", f"{sweep[('sp', 3.0)]:.0f}", f"{sweep[('sp', 5.0)]:.0f}",
         f"{sweep[('sp', 5.0)] / sweep[('sp', 3.0)]:.3f}x"]
    )
    sweep_rows.append(
        ["load-aware x4", f"{sweep[('te', 3.0)]:.0f}", f"{sweep[('te', 5.0)]:.0f}",
         f"{sweep[('te', 5.0)] / sweep[('te', 3.0)]:.3f}x"]
    )
    sweep_table = format_table(
        ["routing", "ISL 3x (Gbps)", "ISL 5x (Gbps)", "gain"],
        sweep_rows,
        title="Fig 5 plateau under each routing",
    )

    gain = (
        data["load-aware (1 path)"]["gbps"] / data["shortest path (k=1)"]["gbps"]
    )
    latency_cost = (
        data["load-aware (1 path)"]["median_rtt_ms"]
        - data["shortest path (k=1)"]["median_rtt_ms"]
    )
    headline = {
        "load-aware/shortest-path throughput [paper: 'higher']": round(gain, 2),
        "median RTT cost (ms) [paper: 'increased latency']": round(latency_cost, 2),
        "ISL 3x->5x gain, shortest-path routing": round(
            sweep[("sp", 5.0)] / sweep[("sp", 3.0)], 3
        ),
        "ISL 3x->5x gain, load-aware routing": round(
            sweep[("te", 5.0)] / sweep[("te", 3.0)], 3
        ),
    }
    return ExperimentResult(
        experiment_id="ext-terouting",
        title="Load-aware routing vs the paper's shortest-path model",
        scale_name=scale.name,
        tables=[table, sweep_table, format_summary("Extension headline", headline)],
        data={"schemes": data, "sweep": sweep},
        headline=headline,
    )
