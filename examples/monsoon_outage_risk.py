#!/usr/bin/env python3
"""Weather risk assessment for tropical routes (Section 6 applied).

A service planner asks: which long routes suffer most from rain fade,
and how much does ISL connectivity protect them? This example scores
several named intercontinental routes by worst-link attenuation at
multiple exceedance levels, under BP and ISL routing, using the built-in
ITU-style models and climatology.

Run:  python examples/monsoon_outage_risk.py
"""

from dataclasses import replace

from repro import ConnectivityMode, Scenario, ScenarioScale
from repro.atmosphere.attenuation import (
    attenuation_to_power_fraction,
    paths_worst_link_attenuation_db,
)
from repro.flows.routing import route_traffic
from repro.reporting import format_table

ROUTES = [
    ("Delhi", "Sydney"),       # The paper's Fig. 7/8 case study.
    ("Mumbai", "Jakarta"),     # Monsoon-to-monsoon.
    ("Singapore", "Lagos"),    # Equatorial belt crossing.
    ("London", "New York"),    # Temperate North Atlantic, for contrast.
    ("Santiago", "Cape Town"), # Dry-latitude South Atlantic.
]

EXCEEDANCES = (1.0, 0.5, 0.1)


def main() -> None:
    names = sorted({name for route in ROUTES for name in route})
    scale = ScenarioScale(
        name="weather-risk",
        num_cities=150,
        num_pairs=10,
        relay_spacing_deg=2.0,
        num_snapshots=1,
    )
    scenario = replace(
        Scenario.paper_default("starlink", scale), extra_city_names=tuple(names)
    )
    isl_scenario = replace(scenario, use_relays=False, use_aircraft=False)
    bp_graph = scenario.graph_at(0.0, ConnectivityMode.BP_ONLY)
    isl_graph = isl_scenario.graph_at(0.0, ConnectivityMode.ISL_ONLY)
    bp_paths = route_traffic(
        bp_graph, [scenario.city_pair(a, b) for a, b in ROUTES]
    ).first_paths()
    isl_paths = route_traffic(
        isl_graph, [isl_scenario.city_pair(a, b) for a, b in ROUTES]
    ).first_paths()

    bp_nodes = [path.nodes if path else None for path in bp_paths]
    isl_nodes = [path.nodes if path else None for path in isl_paths]
    # Worst-link dB per route, BP and ISL, at each exceedance level.
    worst = {
        pct: (
            paths_worst_link_attenuation_db(bp_graph, bp_nodes, pct),
            paths_worst_link_attenuation_db(
                isl_graph, isl_nodes, pct, endpoints_only=True
            ),
        )
        for pct in EXCEEDANCES
    }

    rows = []
    for i, (city_a, city_b) in enumerate(ROUTES):
        row = [f"{city_a}-{city_b}"]
        for bp_db, isl_db in worst.values():
            row.append(f"{bp_db[i]:.1f} / {isl_db[i]:.1f}")
        if bp_paths[i] and isl_paths[i]:
            bp_power, isl_power = (
                float(attenuation_to_power_fraction(db[i])) for db in worst[1.0]
            )
            row.append(f"+{100 * (isl_power - bp_power) / bp_power:.0f}%")
        else:
            row.append("-")
        rows.append(row)

    print(
        format_table(
            ["route"]
            + [f"BP/ISL dB @{p}%" for p in EXCEEDANCES]
            + ["ISL power gain @1%"],
            rows,
            title="Worst-link attenuation by route (BP path vs ISL path)",
        )
    )
    print()
    print(
        "Reading: tropical routes pay several dB under BP because their"
        " intermediate hops\nsit in high-rain regions; ISL paths only expose"
        " the endpoints (paper Fig. 8: 5 dB vs 2.2 dB)."
    )


if __name__ == "__main__":
    main()
