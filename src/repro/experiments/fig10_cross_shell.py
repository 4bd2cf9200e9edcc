"""Fig. 10 — BP as "transition points" between shells (Brisbane-Tokyo).

Cross-shell ISLs are impractical (Section 8), so a multi-shell network
can only move traffic between shells by bouncing through a GT. The
paper's example: Brisbane-Tokyo achieves lower latency by switching
between the 53-degree shell and a polar shell mid-path.

We compare three networks for that pair:

* Starlink 53-degree shell only, hybrid (single-shell baseline);
* Starlink + polar shell, hybrid — BP transition points between shells
  arise naturally, since the graph has no cross-shell ISLs but every GT
  can reach satellites of both shells;
* BP-only on both shells.

The reproduction target is the *mechanism*: the two-shell hybrid should
be at least as good as single-shell at every snapshot, strictly better
at some, with the winning paths actually using both shells.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.constants import SPEED_OF_LIGHT
from repro.core.scenario import Scenario, ScenarioScale
from repro.experiments.base import ExperimentResult, register
from repro.flows.routing import route_traffic
from repro.network.graph import ConnectivityMode
from repro.reporting.tables import format_summary, format_table

__all__ = ["run", "shells_used"]

CITY_A = "Brisbane"
CITY_B = "Tokyo"


def shells_used(constellation, path_nodes, num_sats: int) -> set[int]:
    """Which shell indices a path's satellite hops belong to."""
    used = set()
    for node in path_nodes:
        if 0 <= node < num_sats:
            shell_index, _ = constellation.shell_of(node)
            used.add(shell_index)
    return used


@register("fig10")
def run(scale: ScenarioScale = ScenarioScale.small()) -> ExperimentResult:
    """Run this experiment; see the module docstring for the design."""
    single = replace(
        Scenario.paper_default("starlink", scale),
        extra_city_names=(CITY_A, CITY_B),
    )
    dual = replace(
        Scenario.paper_default("starlink+polar", scale),
        extra_city_names=(CITY_A, CITY_B),
    )
    pair_single = single.city_pair(CITY_A, CITY_B)
    pair_dual = dual.city_pair(CITY_A, CITY_B)

    rows = []
    single_rtts, dual_rtts = [], []
    dual_uses_both = 0
    for time_s in single.times_s:
        g_single = single.graph_at(float(time_s), ConnectivityMode.HYBRID)
        g_dual = dual.graph_at(float(time_s), ConnectivityMode.HYBRID)
        (p_single,) = route_traffic(g_single, [pair_single]).first_paths()
        (p_dual,) = route_traffic(g_dual, [pair_dual]).first_paths()
        s_rtt = 2e3 * p_single.length_m / SPEED_OF_LIGHT if p_single else np.inf
        d_rtt = 2e3 * p_dual.length_m / SPEED_OF_LIGHT if p_dual else np.inf
        single_rtts.append(s_rtt)
        dual_rtts.append(d_rtt)
        shells = (
            shells_used(dual.constellation, p_dual.nodes, g_dual.num_sats)
            if p_dual
            else set()
        )
        if len(shells) > 1:
            dual_uses_both += 1
        rows.append(
            [
                f"{time_s / 60:.0f} min",
                f"{s_rtt:.1f}",
                f"{d_rtt:.1f}",
                "+".join(str(s) for s in sorted(shells)) or "-",
            ]
        )

    single_arr = np.asarray(single_rtts)
    dual_arr = np.asarray(dual_rtts)
    finite = np.isfinite(single_arr) & np.isfinite(dual_arr)
    table = format_table(
        ["snapshot", "single-shell RTT (ms)", "two-shell RTT (ms)", "shells used"],
        rows,
        title=f"Fig 10: {CITY_A}-{CITY_B} with cross-shell BP transitions",
    )
    improvement = single_arr[finite] - dual_arr[finite]
    headline = {
        "snapshots where two shells strictly win": int(np.sum(improvement > 0.1)),
        "max RTT improvement (ms)": round(float(improvement.max()), 1)
        if finite.any()
        else float("nan"),
        "mean RTT improvement (ms)": round(float(improvement.mean()), 2)
        if finite.any()
        else float("nan"),
        "snapshots whose best path spans both shells": dual_uses_both,
    }
    return ExperimentResult(
        experiment_id="fig10",
        title="Cross-shell BP augmentation",
        scale_name=scale.name,
        tables=[table, format_summary("Fig 10 headline", headline)],
        data={"single_rtt_ms": single_arr, "dual_rtt_ms": dual_arr},
        headline=headline,
    )
