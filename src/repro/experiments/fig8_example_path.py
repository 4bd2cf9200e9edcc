"""Fig. 7/8 — the Delhi-Sydney case study: attenuation along one path.

The Delhi-Sydney geodesic crosses the tropics. The BP path bounces off
intermediate GTs (aircraft and land relays) inside the high-rain region;
the ISL path overflies it, exposing only the Delhi up-link and Sydney
down-link.

Paper shape to reproduce (Fig. 8, at 1 % exceedance): BP worst-link
attenuation around 5 dB versus ISL around 2.2 dB — ISL cuts the weather
penalty by roughly 39 % in received power.
"""

from __future__ import annotations

from dataclasses import replace


from repro.atmosphere.attenuation import path_link_attenuations_db
from repro.core.pipeline import pair_path_at
from repro.core.scenario import Scenario, ScenarioScale
from repro.experiments.base import ExperimentResult, register
from repro.network.graph import ConnectivityMode
from repro.reporting.tables import format_summary, format_table

__all__ = ["run"]

CITY_A = "Delhi"
CITY_B = "Sydney"
#: Fig. 8 quotes attenuations "at least 1 % of the time".
EXCEEDANCE_PCT = 1.0
#: The snapshot instant the example path is drawn at.
TIME_S = 0.0


def _hop_rows(links, label):
    return [
        [
            label,
            "up" if link.is_uplink else "down",
            f"{link.gt_lat_deg:.1f}",
            f"{link.gt_lon_deg:.1f}",
            f"{link.elevation_deg:.1f}",
            f"{link.attenuation_db:.2f}",
        ]
        for link in links
    ]


@register("fig8")
def run(scale: ScenarioScale = ScenarioScale.small()) -> ExperimentResult:
    """Run this experiment; see the module docstring for the design."""
    scenario = replace(
        Scenario.paper_default("starlink", scale),
        extra_city_names=(CITY_A, CITY_B),
    )
    pair = scenario.city_pair(CITY_A, CITY_B)

    bp_graph, bp_path = pair_path_at(scenario, pair, TIME_S, ConnectivityMode.BP_ONLY)
    isl_scenario = replace(scenario, use_relays=False, use_aircraft=False)
    isl_pair = isl_scenario.city_pair(CITY_A, CITY_B)
    isl_graph, isl_path = pair_path_at(
        isl_scenario, isl_pair, TIME_S, ConnectivityMode.ISL_ONLY
    )
    if bp_path is None or isl_path is None:
        raise RuntimeError(
            f"{CITY_A}-{CITY_B} unreachable at t={TIME_S}; "
            "scale too small for the case study"
        )

    bp_links = path_link_attenuations_db(bp_graph, bp_path.nodes, EXCEEDANCE_PCT)
    isl_links = path_link_attenuations_db(
        isl_graph, isl_path.nodes, EXCEEDANCE_PCT, endpoints_only=True
    )
    table = format_table(
        ["path", "direction", "GT lat", "GT lon", "elevation", "attenuation (dB)"],
        _hop_rows(bp_links, "BP") + _hop_rows(isl_links, "ISL"),
        title=f"Fig 7/8: {CITY_A}-{CITY_B} per-hop attenuation at {EXCEEDANCE_PCT}% exceedance",
    )

    bp_worst = max(l.attenuation_db for l in bp_links)
    isl_worst = max(l.attenuation_db for l in isl_links)
    bp_power = 10.0 ** (-bp_worst / 10.0)
    isl_power = 10.0 ** (-isl_worst / 10.0)
    headline = {
        "BP worst-link attenuation (dB) [paper: ~5]": round(bp_worst, 2),
        "ISL worst-link attenuation (dB) [paper: ~2.2]": round(isl_worst, 2),
        "BP intermediate GT hops [paper: 2 aircraft + 4 GTs]": len(bp_links) - 2
        if len(bp_links) >= 2
        else 0,
        # Paper arithmetic: 78 % received power (ISL) over 56 % (BP) ~ +39 %.
        "received-power improvement from ISL (%) [paper: ~39]": round(
            100.0 * (isl_power - bp_power) / bp_power, 1
        ),
    }
    return ExperimentResult(
        experiment_id="fig8",
        title="Delhi-Sydney attenuation case study",
        scale_name=scale.name,
        tables=[table, format_summary("Fig 8 headline", headline)],
        data={
            "bp_worst_db": bp_worst,
            "isl_worst_db": isl_worst,
            "bp_hops": bp_path.hops,
            "isl_hops": isl_path.hops,
        },
        headline=headline,
    )
