"""Fig. 5 — Starlink throughput as ISL capacity varies (0.5x-5x GT links).

The GT-satellite link capacity stays at 20 Gbps while ISL capacity sweeps
from 0.5x to 5x of it, with k = 4 edge-disjoint paths.

Paper shapes to reproduce: even at 0.5x the hybrid network beats BP by
2.2x (path diversity, not raw ISL bandwidth, drives much of the win);
the curve saturates around 3x because the k-shortest-path routing cannot
exploit further ISL capacity.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.core.parallel import map_snapshot_rows
from repro.core.scenario import Scenario, ScenarioScale, full_scale_requested
from repro.experiments.base import ExperimentResult, register
from repro.flows.throughput import evaluate_throughput
from repro.network.graph import ConnectivityMode
from repro.network.links import LinkCapacities
from repro.reporting.tables import format_summary, format_table

__all__ = ["run", "RATIOS"]

RATIOS = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0)


def _capacity_sweep_row(scenario, time_s, mode, k, ratios) -> np.ndarray:
    """Snapshot-map evaluator: BP baseline or the hybrid ISL-ratio sweep.

    The BP row is one number (BP has no ISLs to scale); the hybrid row
    holds one aggregate per ratio. Routing is capacity-independent, so
    the hybrid paths are routed once and re-allocated per ratio.
    """
    graph = scenario.graph_at(float(time_s), mode)
    base_caps = LinkCapacities()
    if mode is ConnectivityMode.BP_ONLY:
        outcome = evaluate_throughput(graph, scenario.pairs, k=k, capacities=base_caps)
        return np.asarray([outcome.aggregate_gbps])
    from repro.flows.routing import route_traffic

    routing = route_traffic(graph, scenario.pairs, k=k)
    return np.asarray(
        [
            evaluate_throughput(
                graph,
                scenario.pairs,
                k=k,
                capacities=base_caps.scaled_isl(ratio),
                routing=routing,
            ).aggregate_gbps
            for ratio in ratios
        ]
    )


@register("fig5")
def run(scale: ScenarioScale | None = None, k: int = 4) -> ExperimentResult:
    """Run this experiment; see the module docstring for the design."""
    scale = scale or (
        ScenarioScale.full()
        if full_scale_requested()
        else ScenarioScale.throughput_bench()
    )
    scenario = Scenario.paper_default("starlink", scale)

    # Through the generic snapshot map: both modes share one geometry
    # frame per snapshot via the engine, the BP row is one wide and the
    # hybrid row one entry per ratio, and an ambient checkpoint root
    # makes the sweep resumable like every other one.
    modes = (ConnectivityMode.BP_ONLY, ConnectivityMode.HYBRID)
    mapped = map_snapshot_rows(
        scenario,
        modes,
        functools.partial(_capacity_sweep_row, k=int(k), ratios=RATIOS),
        row_len={
            ConnectivityMode.BP_ONLY: 1,
            ConnectivityMode.HYBRID: len(RATIOS),
        },
        times_s=np.asarray([0.0]),
        label=f"fig5-k{int(k)}",
    )
    bp_gbps = float(mapped[ConnectivityMode.BP_ONLY][0, 0])

    rows = []
    sweep = {}
    for j, ratio in enumerate(RATIOS):
        caps = LinkCapacities().scaled_isl(ratio)
        sweep[ratio] = float(mapped[ConnectivityMode.HYBRID][j, 0])
        outcome_gbps = sweep[ratio]
        rows.append(
            [
                f"{ratio:.1f}x",
                f"{caps.isl_bps / 1e9:.0f}",
                f"{outcome_gbps:.0f}",
                f"{outcome_gbps / bp_gbps:.2f}x",
            ]
        )
    rows.append(["BP (no ISLs)", "-", f"{bp_gbps:.0f}", "1.00x"])

    table = format_table(
        ["ISL capacity", "ISL Gbps", "throughput (Gbps)", "vs BP"],
        rows,
        title=f"Fig 5: Starlink throughput vs ISL capacity (k={k})",
    )
    headline = {
        "hybrid/BP at 0.5x ISL capacity [paper: 2.2x]": round(sweep[0.5] / bp_gbps, 2),
        "hybrid/BP at 5x ISL capacity": round(sweep[5.0] / bp_gbps, 2),
        "gain from 3x -> 5x (plateau check, paper: ~none)": round(
            sweep[5.0] / sweep[3.0], 3
        ),
    }
    return ExperimentResult(
        experiment_id="fig5",
        title="Throughput vs ISL capacity sweep",
        scale_name=scale.name,
        tables=[table, format_summary("Fig 5 headline", headline)],
        data={"bp_gbps": bp_gbps, "sweep_gbps": sweep},
        headline=headline,
    )
