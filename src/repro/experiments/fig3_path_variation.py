"""Fig. 3 — the Maceio-Durban path changes a lot with aircraft availability.

The paper's case study: the Maceio (Brazil) to Durban (South Africa)
path must cross the South Atlantic, where air traffic is sparse. Under
BP the route often detours via the busy North Atlantic, inflating RTT by
up to 100 ms; with ISLs the path is stable.

We reproduce the per-snapshot RTT series for that pair under both modes
and report hop composition (how many aircraft relays each path uses, and
whether the path strays into the northern hemisphere).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.constants import SPEED_OF_LIGHT
from repro.core.scenario import Scenario, ScenarioScale
from repro.experiments.base import ExperimentResult, register
from repro.flows.routing import route_traffic
from repro.ground.stations import StationKind
from repro.network.graph import ConnectivityMode
from repro.orbits.coordinates import ecef_to_geodetic
from repro.reporting.tables import format_summary, format_table

__all__ = ["run", "path_profile"]

CITY_A = "Maceio"
CITY_B = "Durban"


def path_profile(graph, path) -> dict:
    """Hop composition of a path: GT kinds used and latitude extremes."""
    aircraft_hops = 0
    relay_hops = 0
    max_lat = -90.0
    for node in path.nodes[1:-1]:
        if graph.is_sat_node(node):
            lat, _, _ = ecef_to_geodetic(graph.sat_ecef[node])
            max_lat = max(max_lat, float(lat))
            continue
        kind = graph.stations.kind_of(node - graph.num_sats)
        if kind is StationKind.AIRCRAFT:
            aircraft_hops += 1
        elif kind is StationKind.RELAY:
            relay_hops += 1
        lat, _, _ = ecef_to_geodetic(graph.gt_ecef[node - graph.num_sats])
        max_lat = max(max_lat, float(lat))
    return {
        "aircraft_hops": aircraft_hops,
        "relay_hops": relay_hops,
        "total_hops": path.hops,
        "max_lat_deg": max_lat,
        "rtt_ms": 2e3 * path.length_m / SPEED_OF_LIGHT,
    }


@register("fig3")
def run(scale: ScenarioScale = ScenarioScale.small()) -> ExperimentResult:
    """Run this experiment; see the module docstring for the design."""
    scenario = replace(
        Scenario.paper_default("starlink", scale),
        extra_city_names=(CITY_A, CITY_B),
    )
    pair = scenario.city_pair(CITY_A, CITY_B)

    rows = []
    bp_rtts, hybrid_rtts = [], []
    bp_profiles = []
    for time_s in scenario.times_s:
        graph_bp = scenario.graph_at(float(time_s), ConnectivityMode.BP_ONLY)
        graph_hy = scenario.graph_at(float(time_s), ConnectivityMode.HYBRID)
        (path_bp,) = route_traffic(graph_bp, [pair]).first_paths()
        (path_hy,) = route_traffic(graph_hy, [pair]).first_paths()
        bp = path_profile(graph_bp, path_bp) if path_bp else None
        hy = path_profile(graph_hy, path_hy) if path_hy else None
        if bp:
            bp_rtts.append(bp["rtt_ms"])
            bp_profiles.append(bp)
        if hy:
            hybrid_rtts.append(hy["rtt_ms"])
        rows.append(
            [
                f"{time_s / 60:.0f} min",
                f"{bp['rtt_ms']:.1f}" if bp else "unreachable",
                bp["aircraft_hops"] if bp else "-",
                f"{bp['max_lat_deg']:.0f}" if bp else "-",
                f"{hy['rtt_ms']:.1f}" if hy else "unreachable",
            ]
        )

    table = format_table(
        ["snapshot", "BP RTT (ms)", "BP aircraft hops", "BP max lat", "Hybrid RTT (ms)"],
        rows,
        title=f"Fig 3: {CITY_A} - {CITY_B} path over time",
    )
    bp_arr = np.asarray(bp_rtts)
    hy_arr = np.asarray(hybrid_rtts)
    headline = {
        "BP RTT range (ms) [paper: inflation up to ~100]": round(
            float(bp_arr.max() - bp_arr.min()), 1
        )
        if len(bp_arr)
        else float("nan"),
        "hybrid RTT range (ms)": round(float(hy_arr.max() - hy_arr.min()), 1)
        if len(hy_arr)
        else float("nan"),
        "BP snapshots detouring north of the Equator": int(
            sum(p["max_lat_deg"] > 0 for p in bp_profiles)
        ),
        "BP snapshots using aircraft relays": int(
            sum(p["aircraft_hops"] > 0 for p in bp_profiles)
        ),
    }
    return ExperimentResult(
        experiment_id="fig3",
        title="Maceio-Durban path instability under BP",
        scale_name=scale.name,
        tables=[table, format_summary("Fig 3 headline", headline)],
        data={"bp_rtt_ms": bp_arr, "hybrid_rtt_ms": hy_arr},
        headline=headline,
    )
