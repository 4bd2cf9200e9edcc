"""Fig. 6 — 99.5th-percentile attenuation across city pairs, BP vs ISL.

For each city pair the metric is the *worst* link attenuation along the
path, where each link's attenuation is the value exceeded 0.5 % of the
year (the ITU exceedance statistics stand in for "across time").

* **BP paths** are shortest paths on the BP-only network; every up/down
  bounce is exposed to weather.
* **ISL paths** should exclude intermediate GTs entirely (paper
  Section 6). They are computed on the ISL_ONLY network without relays
  or aircraft and scored on the worse of the first and last radio hop.
  Every city GT stays in that network, though, so a path can still
  bounce through another city, whose weather is then ignored
  (ROADMAP.md item 1).

Paper shape to reproduce: the BP distribution sits clearly above the ISL
one; the median gap exceeds 1 dB (~11 % received power).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.atmosphere.attenuation import paths_worst_link_attenuation_db
from repro.core.pipeline import pair_paths_on_graph
from repro.core.scenario import Scenario, ScenarioScale
from repro.experiments.base import ExperimentResult, register
from repro.network.graph import ConnectivityMode
from repro.reporting.tables import format_cdf_table, format_summary

__all__ = ["run", "pair_attenuations"]


def pair_attenuations(
    scenario: Scenario, time_s: float = 0.0, exceedance_pct: float = 0.5
):
    """``(bp_db, isl_db)`` worst-link attenuation arrays over the pairs."""
    bp_graph = scenario.graph_at(time_s, ConnectivityMode.BP_ONLY)
    bp_paths = pair_paths_on_graph(bp_graph, scenario.pairs)
    bp_db = paths_worst_link_attenuation_db(
        bp_graph, bp_paths, exceedance_pct, endpoints_only=False
    )

    # ISL network: same constellation, only city GTs (no relays/aircraft).
    isl_scenario = replace(scenario, use_relays=False, use_aircraft=False)
    isl_graph = isl_scenario.graph_at(time_s, ConnectivityMode.ISL_ONLY)
    isl_paths = pair_paths_on_graph(isl_graph, scenario.pairs)
    isl_db = paths_worst_link_attenuation_db(
        isl_graph, isl_paths, exceedance_pct, endpoints_only=True
    )
    return bp_db, isl_db


@register("fig6")
def run(scale: ScenarioScale = ScenarioScale.small()) -> ExperimentResult:
    """Run this experiment; see the module docstring for the design."""
    scenario = Scenario.paper_default("starlink", scale)
    bp_db, isl_db = pair_attenuations(scenario)

    both = np.isfinite(bp_db) & np.isfinite(isl_db)
    table = format_cdf_table(
        "Fig 6: 99.5th-pct worst-link attenuation across pairs (dB)",
        {"BP": bp_db[both], "ISL": isl_db[both]},
    )
    median_gap = float(np.median(bp_db[both]) - np.median(isl_db[both]))
    headline = {
        "median BP - ISL attenuation (dB) [paper: >1]": round(median_gap, 2),
        "median received-power penalty of BP (%) [paper: ~11]": round(
            100.0 * (1.0 - 10.0 ** (-median_gap / 10.0)), 1
        ),
        "pairs where BP >= ISL (%)": round(
            100.0 * float(np.mean(bp_db[both] >= isl_db[both] - 1e-9)), 1
        ),
        "pairs evaluated": int(both.sum()),
    }
    return ExperimentResult(
        experiment_id="fig6",
        title="Weather attenuation, BP vs ISL paths",
        scale_name=scale.name,
        tables=[table, format_summary("Fig 6 headline", headline)],
        data={"bp_db": bp_db, "isl_db": isl_db},
        headline=headline,
    )
