#!/usr/bin/env python3
"""Case study: London-New York latency over a day, BP vs hybrid vs fiber.

The transatlantic route is the motivating example of the low-latency-
from-space literature: the great-circle RTT bound is ~37 ms, today's
fiber paths run at ~76 ms, and a LEO constellation sits in between.
This example tracks the pair across snapshots under both connectivity
modes and shows where each mode's latency comes from (hop counts,
aircraft usage).

Run:  python examples/transatlantic_latency.py
"""

from dataclasses import replace

from repro import ConnectivityMode, Scenario, ScenarioScale
from repro.constants import SPEED_OF_LIGHT
from repro.flows.routing import route_traffic
from repro.ground.stations import StationKind
from repro.reporting import format_summary, format_table

CITY_A = "London"
CITY_B = "New York"
#: Measured RTT of current transatlantic fiber routes, for context.
FIBER_RTT_MS = 76.0


def hop_kinds(graph, path) -> str:
    """Compact path signature like 'C-s-R-s-A-s-C' (GT kinds and sats)."""
    symbols = []
    for node in path.nodes:
        if graph.is_sat_node(node):
            symbols.append("s")
            continue
        kind = graph.stations.kind_of(node - graph.num_sats)
        symbols.append(
            {"city": "C", "relay": "R", "aircraft": "A"}[kind.value]
        )
    return "-".join(symbols)


def main() -> None:
    scale = ScenarioScale(
        name="transatlantic",
        num_cities=100,
        num_pairs=10,
        relay_spacing_deg=2.0,
        num_snapshots=12,
        snapshot_interval_s=1800.0,
    )
    scenario = replace(
        Scenario.paper_default("starlink", scale),
        extra_city_names=(CITY_A, CITY_B),
    )
    pair = scenario.city_pair(CITY_A, CITY_B)
    geodesic_rtt = 2e3 * pair.distance_m / SPEED_OF_LIGHT

    rows = []
    for time_s in scenario.times_s:
        entry = [f"{time_s / 60:.0f} min"]
        for mode in (ConnectivityMode.BP_ONLY, ConnectivityMode.HYBRID):
            graph = scenario.graph_at(float(time_s), mode)
            (path,) = route_traffic(graph, [pair]).first_paths()
            if path is None:
                entry += ["unreachable", "-"]
                continue
            rtt = 2e3 * path.length_m / SPEED_OF_LIGHT
            entry += [f"{rtt:.1f}", hop_kinds(graph, path)]
        rows.append(entry)

    print(
        format_table(
            ["snapshot", "BP RTT (ms)", "BP path", "Hybrid RTT (ms)", "Hybrid path"],
            rows,
            title=f"{CITY_A} - {CITY_B} over a quarter day",
        )
    )
    print()
    print(
        format_summary(
            "Reference points",
            {
                "geodesic lower bound (ms)": geodesic_rtt,
                "today's fiber (ms, approx)": FIBER_RTT_MS,
            },
        )
    )


if __name__ == "__main__":
    main()
