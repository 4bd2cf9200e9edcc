"""repro: reproduction of "Internet from Space" without Inter-satellite Links?

A LEO mega-constellation network simulator comparing bent-pipe (BP) and
hybrid (BP + laser ISL) connectivity, reproducing the HotNets 2020 paper
by Hauri, Bhattacherjee, Grossmann and Singla.

Quick start::

    from repro import Scenario, ScenarioScale, compare_latency

    scenario = Scenario.paper_default("starlink", ScenarioScale.small())
    result = compare_latency(scenario)
    print(result.summary())

Subpackages
-----------
``repro.core``
    Scenario definitions and the BP-vs-hybrid comparison engine.
``repro.orbits``
    Circular-orbit propagation, Walker shells, FCC-filing presets.
``repro.geo``
    Spherical geodesy, land mask, lat/lon grids.
``repro.ground``
    City GTs, relay grids, synthetic aircraft relays.
``repro.network``
    Snapshot graphs, +Grid ISL topology, shortest/disjoint paths.
``repro.flows``
    Traffic matrices, routing, max-min fair allocation (floodns-style).
``repro.atmosphere``
    ITU-style rain/cloud/gas/scintillation attenuation models.
``repro.experiments``
    One module per paper figure/table, each regenerating its data.
"""

from repro.constants import coverage_radius_m, orbital_period
from repro.core import (
    LatencyComparison,
    RttSeries,
    Scenario,
    ScenarioScale,
    compare_latency,
    compute_rtt_series_multi,
)
from repro.flows import evaluate_throughput, sample_city_pairs
from repro.network import ConnectivityMode, LinkCapacities
from repro.orbits import kuiper, preset, starlink

__version__ = "1.0.0"

__all__ = [
    "Scenario",
    "ScenarioScale",
    "ConnectivityMode",
    "LinkCapacities",
    "compare_latency",
    "compute_rtt_series_multi",
    "LatencyComparison",
    "RttSeries",
    "evaluate_throughput",
    "sample_city_pairs",
    "starlink",
    "kuiper",
    "preset",
    "orbital_period",
    "coverage_radius_m",
    "__version__",
]
