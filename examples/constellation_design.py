#!/usr/bin/env python3
"""Constellation design exploration: shells beyond Starlink and Kuiper.

How do altitude, inclination and plane count trade off against coverage,
latency and ISL geometry? This example evaluates the two paper shells
and two hypothetical designs with the library's public API, printing a
designer's comparison card for each: coverage radius, pass duration,
stranded-satellite fraction under BP, ISL lengths, and median hybrid
RTT over the standard traffic sample.

Run:  python examples/constellation_design.py
"""

import numpy as np

from repro import ConnectivityMode, Scenario, ScenarioScale
from repro.core.pipeline import compute_rtt_series_multi
from repro.network.dynamics import max_pass_duration_s
from repro.network.graph import isl_grazing_altitude_m
from repro.network.topology import isl_lengths_m, plus_grid_edges
from repro.orbits.constellation import Constellation, Shell
from repro.orbits.presets import kuiper_shell, starlink_shell
from repro.reporting import format_table

DESIGNS = [
    starlink_shell(),
    kuiper_shell(),
    # A sparse high-altitude design: fewer satellites, bigger footprints.
    Shell(
        name="high-sparse",
        num_planes=24,
        sats_per_plane=24,
        altitude_m=1_150_000.0,
        inclination_deg=53.0,
        min_elevation_deg=25.0,
    ),
    # A dense low shell: more satellites, shorter (faster) ISL hops.
    Shell(
        name="low-dense",
        num_planes=60,
        sats_per_plane=40,
        altitude_m=450_000.0,
        inclination_deg=60.0,
        min_elevation_deg=25.0,
    ),
]

SCALE = ScenarioScale(
    name="design-study",
    num_cities=100,
    num_pairs=80,
    relay_spacing_deg=3.0,
    num_snapshots=2,
    snapshot_interval_s=1800.0,
)


def evaluate(shell: Shell) -> list:
    constellation = Constellation(name=shell.name, shells=(shell,))
    scenario = Scenario.paper_default(constellation, SCALE)

    edges = plus_grid_edges(shell)
    lengths = isl_lengths_m(edges, shell.positions_eci(0.0))
    grazing_km = isl_grazing_altitude_m(
        6_371_000.0 + shell.altitude_m, float(lengths.max())
    ) / 1000.0

    bp_graph = scenario.graph_at(0.0, ConnectivityMode.BP_ONLY)
    stranded = bp_graph.satellite_component_stats()["disconnected_fraction"]

    series = compute_rtt_series_multi(
        scenario, [ConnectivityMode.HYBRID]
    )[ConnectivityMode.HYBRID]
    finite = series.rtt_ms[np.isfinite(series.rtt_ms)]
    median_rtt = float(np.median(finite)) if len(finite) else float("nan")
    reachable = series.reachable_fraction()

    return [
        shell.name,
        shell.num_satellites,
        f"{shell.coverage_radius_m / 1000:.0f}",
        f"{max_pass_duration_s(shell) / 60:.1f}",
        f"{lengths.max() / 1000:.0f}",
        f"{grazing_km:.0f}",
        f"{100 * stranded:.0f}%",
        f"{median_rtt:.1f}",
        f"{100 * reachable:.1f}%",
    ]


def main() -> None:
    rows = [evaluate(shell) for shell in DESIGNS]
    print(
        format_table(
            [
                "design",
                "sats",
                "coverage (km)",
                "max pass (min)",
                "max ISL (km)",
                "ISL grazing alt (km)",
                "BP stranded",
                "median hybrid RTT (ms)",
                "hybrid reachable",
            ],
            rows,
            title="Constellation design comparison (reduced-scale scenario)",
        )
    )
    print()
    print(
        "Reading: higher shells buy coverage and pass duration at the cost"
        " of latency;\ndenser shells shorten ISLs (more, faster hops) and"
        " strand fewer satellites under BP."
    )


if __name__ == "__main__":
    main()
