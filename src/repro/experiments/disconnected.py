"""Section 5 (text) — satellites entirely disconnected under BP.

"For Starlink, we find that across a day, the number of satellites that
are entirely disconnected from the rest of the network varies between
25.1 % and 31.5 % of all satellites."

Without ISLs a satellite is useful only while some GT sees it; over
oceans and away from air corridors, satellites serve nobody. We count
satellites outside the giant component of the BP graph per snapshot.
"""

from __future__ import annotations

import numpy as np

from repro.core.parallel import map_snapshot_rows
from repro.core.scenario import Scenario, ScenarioScale
from repro.experiments.base import ExperimentResult, register
from repro.network.graph import ConnectivityMode
from repro.reporting.tables import format_summary, format_table

__all__ = ["run"]


def _component_row(scenario, time_s, mode) -> np.ndarray:
    """Snapshot-map evaluator: (disconnected count, disconnected fraction)."""
    graph = scenario.graph_at(float(time_s), mode)
    stats = graph.satellite_component_stats()
    return np.asarray(
        [
            float(stats["disconnected_satellites"]),
            float(stats["disconnected_fraction"]),
        ]
    )


@register("disconnected")
def run(scale: ScenarioScale = ScenarioScale.small()) -> ExperimentResult:
    """Run this experiment; see the module docstring for the design."""
    scenario = Scenario.paper_default("starlink", scale)

    # Through the generic snapshot map: both modes of each snapshot
    # share one geometry frame via the engine, and the per-snapshot rows
    # checkpoint/resume under an ambient root like every other sweep.
    modes = (ConnectivityMode.BP_ONLY, ConnectivityMode.HYBRID)
    mapped = map_snapshot_rows(
        scenario,
        modes,
        _component_row,
        row_len=2,
        label="disconnected",
    )
    bp_rows = mapped[ConnectivityMode.BP_ONLY]
    hy_rows = mapped[ConnectivityMode.HYBRID]

    rows = []
    for i, time_s in enumerate(scenario.times_s):
        rows.append(
            [
                f"{time_s / 60:.0f} min",
                int(bp_rows[0, i]),
                f"{100 * bp_rows[1, i]:.1f}%",
                f"{100 * hy_rows[1, i]:.1f}%",
            ]
        )

    fractions = bp_rows[1]
    hybrid_fractions = hy_rows[1]
    table = format_table(
        ["snapshot", "BP disconnected sats", "BP fraction", "hybrid fraction"],
        rows,
        title="Satellites disconnected from the giant component",
    )
    headline = {
        "BP disconnected min (%) [paper: 25.1]": round(100 * float(fractions.min()), 1),
        "BP disconnected max (%) [paper: 31.5]": round(100 * float(fractions.max()), 1),
        "hybrid disconnected max (%) [expected: ~0]": round(
            100 * float(np.max(hybrid_fractions)), 2
        ),
    }
    return ExperimentResult(
        experiment_id="disconnected",
        title="Fraction of satellites unusable without ISLs",
        scale_name=scale.name,
        tables=[table, format_summary("Disconnected-satellite headline", headline)],
        data={"bp_fractions": fractions, "hybrid_fractions": np.asarray(hybrid_fractions)},
        headline=headline,
    )
