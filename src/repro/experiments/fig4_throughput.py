"""Fig. 4 — aggregate throughput, BP vs hybrid, Starlink and Kuiper.

Traffic between the sampled city pairs is routed over k edge-disjoint
shortest paths (k = 1 and 4) and rates come from max-min fair sharing
with 20 Gbps GT links and 100 Gbps ISLs.

Paper shapes to reproduce: hybrid beats BP by more than 2.5x at k = 1
and at least 3.1x at k = 4, on both constellations; the multipath gain
(k = 4 over k = 1) is larger for hybrid (1.65x/1.76x) than for BP
(1.34x/1.44x).
"""

from __future__ import annotations

import functools

import numpy as np

from repro.core.parallel import map_snapshot_rows
from repro.core.scenario import Scenario, ScenarioScale
from repro.experiments.base import ExperimentResult, register
from repro.flows.routing import route_traffic_multi_k
from repro.flows.throughput import evaluate_throughput
from repro.network.graph import ConnectivityMode
from repro.reporting.tables import format_summary, format_table

__all__ = ["run", "throughput_matrix"]


def _matrix_snapshot_row(scenario, time_s, mode, ks) -> np.ndarray:
    """Snapshot-map evaluator: aggregate Gbps for each ``k``, one mode.

    All ``ks`` of one mode are routed together with
    :func:`repro.flows.routing.route_traffic_multi_k`, so the shared
    round-1 source Dijkstras are paid once per mode instead of once per
    (mode, k) — identical numbers, roughly half the routing work for
    the paper's (1, 4) sweep.
    """
    graph = scenario.graph_at(float(time_s), mode)
    routed = route_traffic_multi_k(graph, scenario.pairs, ks)
    return np.asarray(
        [
            evaluate_throughput(
                graph,
                scenario.pairs,
                k=k,
                routing=routed[int(k)],
            ).aggregate_gbps
            for k in ks
        ]
    )


def throughput_matrix(
    scenario: Scenario,
    ks=(1, 4),
    time_s: float = 0.0,
    processes: int = 1,
) -> dict:
    """Aggregate throughput for every (mode, k) combination, Gbps.

    Runs through the generic snapshot map (checkpoint/resume-capable like
    every other sweep), with one row per mode holding the aggregate for
    each ``k`` under the paper's per-link capacities. Both modes of the
    snapshot share one geometry frame via the engine.

    ``processes`` is inert: a one-instant sweep never has two pending
    snapshots, so the map never starts its worker pool whatever the run
    context's ``jobs``. The parameter stays only for callers that pass
    it.
    """
    ks = tuple(int(k) for k in ks)
    modes = (ConnectivityMode.BP_ONLY, ConnectivityMode.HYBRID)
    rows = map_snapshot_rows(
        scenario,
        modes,
        functools.partial(_matrix_snapshot_row, ks=ks),
        row_len=len(ks),
        times_s=np.asarray([float(time_s)]),
        label=f"fig4-k{'_'.join(str(k) for k in ks)}",
    )
    return {
        (mode.value, k): float(rows[mode][j, 0])
        for mode in modes
        for j, k in enumerate(ks)
    }


@register("fig4")
def run(scale: ScenarioScale = ScenarioScale.throughput_bench()) -> ExperimentResult:
    """Run this experiment; see the module docstring for the design."""
    rows = []
    data = {}
    headline = {}
    for constellation in ("starlink", "kuiper"):
        scenario = Scenario.paper_default(constellation, scale)
        matrix = throughput_matrix(scenario)
        data[constellation] = matrix
        bp1, bp4 = matrix[("bp", 1)], matrix[("bp", 4)]
        hy1, hy4 = matrix[("hybrid", 1)], matrix[("hybrid", 4)]
        rows.append([constellation, "BP", f"{bp1:.0f}", f"{bp4:.0f}"])
        rows.append([constellation, "Hybrid", f"{hy1:.0f}", f"{hy4:.0f}"])
        headline[f"{constellation} hybrid/BP at k=1 [paper: >2.5x]"] = round(hy1 / bp1, 2)
        headline[f"{constellation} hybrid/BP at k=4 [paper: >=3.1x]"] = round(hy4 / bp4, 2)
        headline[f"{constellation} hybrid multipath gain [paper: 1.65-1.76x]"] = round(
            hy4 / hy1, 2
        )
        headline[f"{constellation} BP multipath gain [paper: 1.34-1.44x]"] = round(
            bp4 / bp1, 2
        )

    table = format_table(
        ["constellation", "mode", "k=1 (Gbps)", "k=4 (Gbps)"],
        rows,
        title="Fig 4: aggregate throughput",
    )
    return ExperimentResult(
        experiment_id="fig4",
        title="Network-wide throughput (BP vs hybrid)",
        scale_name=scale.name,
        tables=[table, format_summary("Fig 4 headline ratios", headline)],
        data=data,
        headline=headline,
    )
