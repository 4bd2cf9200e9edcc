#!/usr/bin/env python3
"""The high-latitude coverage gap and what a polar shell buys.

First-phase Starlink (53-degree inclination) serves nothing above
~61.5 degrees latitude — no Svalbard, no northern Alaska, no Antarctic
stations. This example profiles satellites-in-view by latitude for the
single-shell and shell+polar constellations, and shows the RTT effect
for a high-latitude city pair once the polar shell exists.

Run:  python examples/polar_coverage_gap.py
"""

from dataclasses import replace

import numpy as np

from repro import ConnectivityMode, Scenario, ScenarioScale
from repro.flows.routing import route_traffic
from repro.orbits.coverage import (
    latitude_coverage_profile,
    max_served_latitude_deg,
)
from repro.orbits.presets import starlink, starlink_with_polar
from repro.reporting import format_summary, format_table


def main() -> None:
    single = starlink()
    dual = starlink_with_polar()
    times = [0.0, 1800.0, 3600.0]

    profile_single = latitude_coverage_profile(single, times, lat_step_deg=10.0)
    profile_dual = latitude_coverage_profile(dual, times, lat_step_deg=10.0)

    rows = []
    for i, lat in enumerate(profile_single["lats"]):
        rows.append(
            [
                f"{lat:.0f}",
                f"{profile_single['mean'][i]:.1f}",
                f"{profile_dual['mean'][i]:.1f}",
            ]
        )
    print(
        format_table(
            ["latitude", "starlink mean sats in view", "+polar mean sats in view"],
            rows,
            title="Satellites in view by latitude (averaged over longitude/time)",
        )
    )
    print()
    print(
        format_summary(
            "Service limits",
            {
                "starlink max served latitude": f"{max_served_latitude_deg(single):.1f} deg",
                "with polar shell": f"{max_served_latitude_deg(dual):.1f} deg",
            },
        )
    )

    # A pair the 53-degree shell cannot serve at all: Tromso-Fairbanks.
    scale = ScenarioScale(
        name="polar-gap",
        num_cities=60,
        num_pairs=10,
        relay_spacing_deg=3.0,
        num_snapshots=3,
        snapshot_interval_s=1800.0,
    )
    scenario = replace(
        Scenario.paper_default(dual, scale),
        extra_city_names=("Tromso", "Fairbanks"),
    )
    pair = scenario.city_pair("Tromso", "Fairbanks")
    single_scenario = replace(scenario, constellation=single)

    print()
    rows = []
    for time_s in scenario.times_s:
        g_single = single_scenario.graph_at(float(time_s), ConnectivityMode.HYBRID)
        g_dual = scenario.graph_at(float(time_s), ConnectivityMode.HYBRID)
        (p_single,) = route_traffic(g_single, [pair]).first_paths()
        (p_dual,) = route_traffic(g_dual, [pair]).first_paths()
        rows.append(
            [
                f"{time_s / 60:.0f} min",
                f"{2e3 * p_single.length_m / 299792458.0:.1f}"
                if p_single
                else "unreachable",
                f"{2e3 * p_dual.length_m / 299792458.0:.1f}"
                if p_dual
                else "unreachable",
            ]
        )
    print(
        format_table(
            ["snapshot", "starlink-only RTT (ms)", "+polar RTT (ms)"],
            rows,
            title="Tromso (69.7N) - Fairbanks (64.8N)",
        )
    )


if __name__ == "__main__":
    main()
