"""The scalar per-hop weather loop: the radio-hop scorer's test reference.

:func:`path_link_attenuations_db` walks a node path one hop at a time
and scores each GT-satellite hop with its own scalar
:func:`repro.atmosphere.attenuation.total_attenuation_db` call, the plain
way the vectorized scorer in :mod:`repro.atmosphere.attenuation` must
agree with (``tests/test_attenuation_paths.py::TestReferenceEquivalence``).
:func:`edge_weather_capacity_factor` scores one radio edge the same way.
"""

from __future__ import annotations

from repro.atmosphere.attenuation import LinkWeather, total_attenuation_db
from repro.constants import DOWNLINK_FREQ_GHZ, UPLINK_FREQ_GHZ
from repro.network.graph import SnapshotGraph
from repro.network.modcod import weather_capacity_factor
from repro.orbits.coordinates import ecef_to_geodetic
from repro.orbits.visibility import elevation_deg as compute_elevation_deg


def link_weather(
    graph: SnapshotGraph,
    gt_node: int,
    sat_node: int,
    is_uplink: bool,
    exceedance_pct: float,
) -> LinkWeather:
    """One GT-satellite hop scored with scalar calls."""
    gt_index = gt_node - graph.num_sats
    gt_ecef = graph.gt_ecef[gt_index]
    sat_ecef = graph.sat_ecef[sat_node]
    elevation = float(compute_elevation_deg(gt_ecef, sat_ecef))
    lat, lon, _ = ecef_to_geodetic(gt_ecef)
    freq = UPLINK_FREQ_GHZ if is_uplink else DOWNLINK_FREQ_GHZ
    attenuation = float(
        total_attenuation_db(float(lat), float(lon), elevation, freq, exceedance_pct)
    )
    return LinkWeather(
        gt_node=gt_node,
        sat_node=sat_node,
        gt_lat_deg=float(lat),
        gt_lon_deg=float(lon),
        elevation_deg=elevation,
        freq_ghz=freq,
        is_uplink=is_uplink,
        attenuation_db=attenuation,
    )


def path_link_attenuations_db(
    graph: SnapshotGraph,
    path_nodes,
    exceedance_pct: float = 0.5,
    endpoints_only: bool = False,
) -> list[LinkWeather]:
    """Attenuation of every GT-satellite hop along a node path, hop by hop.

    ISL and fiber hops are skipped; with ``endpoints_only`` only the
    first and last radio hops are kept.
    """
    results: list[LinkWeather] = []
    nodes = list(path_nodes)
    for u, v in zip(nodes[:-1], nodes[1:]):
        u_is_sat = graph.is_sat_node(u)
        v_is_sat = graph.is_sat_node(v)
        if u_is_sat == v_is_sat:
            continue  # ISL or terrestrial fiber: weather-immune.
        gt_node, sat_node = (v, u) if u_is_sat else (u, v)
        is_uplink = not u_is_sat  # Path direction: GT -> sat is an up-link.
        results.append(link_weather(graph, gt_node, sat_node, is_uplink, exceedance_pct))
    if endpoints_only and len(results) > 2:
        results = [results[0], results[-1]]
    return results


def worst_link_attenuation_db(
    graph: SnapshotGraph,
    path_nodes,
    exceedance_pct: float = 0.5,
    endpoints_only: bool = False,
) -> float:
    """Max attenuation over the path's scored radio hops, NaN without one."""
    links = path_link_attenuations_db(graph, path_nodes, exceedance_pct, endpoints_only)
    return max((link.attenuation_db for link in links), default=float("nan"))


def edge_weather_capacity_factor(
    graph: SnapshotGraph, sat_node: int, gt_node: int, exceedance_pct: float
) -> float:
    """MODCOD factor of one radio edge at the worse of its two directions."""
    up, down = (
        link_weather(graph, gt_node, sat_node, is_uplink, exceedance_pct).attenuation_db
        for is_uplink in (True, False)
    )
    return float(weather_capacity_factor(max(up, down)))
