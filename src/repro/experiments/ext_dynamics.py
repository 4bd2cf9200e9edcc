"""Extension — pass durations and path churn ("paths change continually").

Quantifies two of the paper's narrative claims:

* Section 2's "each satellite is reachable from a GT for a few
  minutes": analytic bound and empirical distribution of visibility
  windows for a representative GT;
* Section 4's "end-to-end paths and their latencies change continually":
  per-snapshot shortest-path churn across the traffic matrix, BP vs
  hybrid. BP should churn more — its paths additionally depend on moving
  aircraft and on which relay happens to be cheapest.
"""

from __future__ import annotations

import numpy as np

from repro.core.pipeline import pair_paths_on_graph
from repro.core.scenario import Scenario, ScenarioScale
from repro.experiments.base import ExperimentResult, register
from repro.ground.cities import city_by_name
from repro.network.dynamics import (
    churn_between,
    empirical_pass_durations_s,
    max_pass_duration_s,
)
from repro.network.graph import ConnectivityMode
from repro.orbits.presets import starlink_shell
from repro.reporting.tables import format_summary, format_table

__all__ = ["run"]


@register("ext-dynamics")
def run(scale: ScenarioScale = ScenarioScale.small()) -> ExperimentResult:
    """Run this experiment; see the module docstring for the design."""

    # Part 1: pass durations at a mid-latitude GT (London).
    shell = starlink_shell()
    analytic = max_pass_duration_s(shell)
    london = city_by_name("London")
    durations = empirical_pass_durations_s(
        shell, london.lat_deg, london.lon_deg, duration_s=5400.0, step_s=15.0
    )
    pass_table = format_summary(
        "Satellite pass durations (Starlink shell, GT at London)",
        {
            "analytic maximum (min)": round(analytic / 60.0, 2),
            "empirical max (min)": round(float(durations.max()) / 60.0, 2)
            if len(durations)
            else float("nan"),
            "empirical median (min)": round(float(np.median(durations)) / 60.0, 2)
            if len(durations)
            else float("nan"),
            "completed passes observed": int(len(durations)),
        },
    )

    # Part 2: path churn across snapshots. Time-outer, mode-inner: both
    # modes of each snapshot assemble from one cached geometry frame.
    scenario = Scenario.paper_default("starlink", scale)
    modes = (ConnectivityMode.BP_ONLY, ConnectivityMode.HYBRID)
    previous = dict.fromkeys(modes)
    stats = {mode: [] for mode in modes}
    for time_s in scenario.times_s:
        graphs = {mode: scenario.graph_at(float(time_s), mode) for mode in modes}
        for mode in modes:
            paths = pair_paths_on_graph(graphs[mode], scenario.pairs)
            if previous[mode] is not None:
                stats[mode].append(churn_between(previous[mode], paths))
            previous[mode] = paths
    churn_rows = []
    churn_data = {}
    for mode in modes:
        mean_churn = float(np.mean([s["mean_churn"] for s in stats[mode]]))
        changed = float(np.mean([s["changed_fraction"] for s in stats[mode]]))
        churn_data[mode.value] = {"mean_churn": mean_churn, "changed_fraction": changed}
        churn_rows.append(
            [mode.value, f"{mean_churn:.3f}", f"{100 * changed:.1f}%"]
        )

    churn_table = format_table(
        ["mode", "mean path churn (1 - Jaccard)", "paths changed per snapshot"],
        churn_rows,
        title="Shortest-path churn between consecutive snapshots",
    )
    headline = {
        "analytic max pass (min) [paper: 'a few minutes']": round(analytic / 60.0, 2),
        "BP mean churn": round(churn_data["bp"]["mean_churn"], 3),
        "hybrid mean churn": round(churn_data["hybrid"]["mean_churn"], 3),
        "BP/hybrid churn ratio": round(
            churn_data["bp"]["mean_churn"]
            / max(churn_data["hybrid"]["mean_churn"], 1e-9),
            2,
        ),
    }
    return ExperimentResult(
        experiment_id="ext-dynamics",
        title="Pass durations and path churn",
        scale_name=scale.name,
        tables=[pass_table, churn_table],
        data={"pass_durations_s": durations, "churn": churn_data,
              "analytic_max_pass_s": analytic},
        headline=headline,
    )
