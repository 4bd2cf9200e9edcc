"""Total slant-path attenuation and path-level weather analysis.

Combines the component models per ITU-R P.618 section 2.5:

    A_T(p) = A_gas + sqrt((A_rain(p) + A_cloud)^2 + A_scint(p)^2)

and provides the paper's Section 6 path metric: the *worst* link
attenuation along an end-to-end path (BP paths bounce through many
GT-satellite radio hops; ISL paths expose only the first and last radio
hop). Free-space path loss is excluded by design — the paper assumes
link budgets already account for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.atmosphere.itu_cloud import cloud_attenuation_db
from repro.atmosphere.itu_gas import gaseous_attenuation_db
from repro.atmosphere.itu_rain import rain_attenuation_db
from repro.atmosphere.itu_scintillation import scintillation_fade_db
from repro.constants import DOWNLINK_FREQ_GHZ, UPLINK_FREQ_GHZ
from repro.network.graph import SnapshotGraph
from repro.orbits.coordinates import ecef_to_geodetic
from repro.orbits.visibility import elevation_deg as compute_elevation_deg

__all__ = [
    "total_attenuation_db",
    "attenuation_to_power_fraction",
    "LinkWeather",
    "path_link_attenuations_db",
    "worst_link_attenuation_db",
    "paths_worst_link_attenuation_db",
]


def total_attenuation_db(
    lat_deg,
    lon_deg,
    elevation_deg,
    freq_ghz: float,
    exceedance_pct: float = 0.5,
):
    """Total atmospheric attenuation exceeded ``exceedance_pct`` of time, dB.

    The paper's headline weather metric uses ``exceedance_pct = 0.5``
    (the 99.5th percentile across time: "more than 7 minutes a day").
    Vectorized over location/elevation.
    """
    rain = rain_attenuation_db(lat_deg, lon_deg, elevation_deg, freq_ghz, exceedance_pct)
    cloud = cloud_attenuation_db(lat_deg, lon_deg, elevation_deg, freq_ghz)
    gas = gaseous_attenuation_db(lat_deg, lon_deg, elevation_deg, freq_ghz)
    scint = scintillation_fade_db(
        lat_deg, lon_deg, elevation_deg, freq_ghz, exceedance_pct
    )
    return gas + np.sqrt((rain + cloud) ** 2 + scint**2)


def attenuation_to_power_fraction(attenuation_db):
    """Received-power fraction corresponding to an attenuation in dB.

    The paper quotes these conversions directly (1 dB -> ~11 % power
    reduction; 5 dB -> 44 % received... strictly 10^(-A/10)).
    """
    return np.power(10.0, -np.asarray(attenuation_db, dtype=float) / 10.0)


@dataclass(frozen=True)
class LinkWeather:
    """Attenuation of one GT-satellite hop along a path."""

    gt_node: int
    sat_node: int
    gt_lat_deg: float
    gt_lon_deg: float
    elevation_deg: float
    freq_ghz: float
    is_uplink: bool
    attenuation_db: float


def path_link_attenuations_db(
    graph: SnapshotGraph,
    path_nodes,
    exceedance_pct: float = 0.5,
    uplink_freq_ghz: float = UPLINK_FREQ_GHZ,
    downlink_freq_ghz: float = DOWNLINK_FREQ_GHZ,
    endpoints_only: bool = False,
) -> list[LinkWeather]:
    """Attenuation of every GT-satellite hop along a node path.

    Hops leaving a GT are up-links (14.25 GHz for Starlink's Ku band),
    hops arriving at a GT are down-links (11.7 GHz). ISL hops are immune
    to weather and skipped. With ``endpoints_only`` (the paper's ISL-path
    accounting) only the first and last radio hops are evaluated — used
    when intermediate GT bounces should be ignored because the path under
    analysis is the ISL one. The path is not checked for such bounces.
    """
    results: list[LinkWeather] = []
    nodes = list(path_nodes)
    for u, v in zip(nodes[:-1], nodes[1:]):
        u_is_sat = graph.is_sat_node(u)
        v_is_sat = graph.is_sat_node(v)
        if u_is_sat and v_is_sat:
            continue  # ISL: weather-immune (stays far above the atmosphere).
        if not u_is_sat and not v_is_sat:
            continue  # Terrestrial fiber hop (Section 8): weather-immune.
        gt_node, sat_node = (v, u) if u_is_sat else (u, v)
        is_uplink = not u_is_sat  # Path direction: GT -> sat is an up-link.
        gt_index = gt_node - graph.num_sats
        gt_ecef = graph.gt_ecef[gt_index]
        sat_ecef = graph.sat_ecef[sat_node]
        elevation = float(compute_elevation_deg(gt_ecef, sat_ecef))
        lat, lon, _ = ecef_to_geodetic(gt_ecef)
        freq = uplink_freq_ghz if is_uplink else downlink_freq_ghz
        attenuation = float(
            total_attenuation_db(float(lat), float(lon), elevation, freq, exceedance_pct)
        )
        results.append(
            LinkWeather(
                gt_node=gt_node,
                sat_node=sat_node,
                gt_lat_deg=float(lat),
                gt_lon_deg=float(lon),
                elevation_deg=elevation,
                freq_ghz=freq,
                is_uplink=is_uplink,
                attenuation_db=attenuation,
            )
        )
    if endpoints_only and len(results) > 2:
        results = [results[0], results[-1]]
    return results


def paths_worst_link_attenuation_db(
    graph: SnapshotGraph,
    paths,
    exceedance_pct: float = 0.5,
    endpoints_only: bool = False,
    uplink_freq_ghz: float = UPLINK_FREQ_GHZ,
    downlink_freq_ghz: float = DOWNLINK_FREQ_GHZ,
) -> np.ndarray:
    """Vectorized worst-radio-hop attenuation for many paths at once, dB.

    ``paths`` is a sequence of node sequences (``None`` entries allowed —
    they yield NaN). All radio hops across all paths are gathered and
    evaluated in two vectorized calls (one per frequency), then reduced
    with a per-path max. This is what lets the Fig. 6 experiment handle
    thousands of pairs.
    """
    lat_list, lon_list, elev_list = [], [], []
    uplink_flags, path_ids = [], []
    for path_id, nodes in enumerate(paths):
        if nodes is None:
            continue
        nodes = list(nodes)
        hops = list(zip(nodes[:-1], nodes[1:]))
        if endpoints_only and len(hops) > 2:
            # Keep only the first and last hop: the radio hops of a pure
            # ISL path. Nothing checks that the path is pure; an ISL_ONLY
            # path can bounce through a city GT, and that bounce's
            # weather is then ignored (ROADMAP.md item 1).
            hops = [hops[0], hops[-1]]
        for u, v in hops:
            u_is_sat = graph.is_sat_node(u)
            v_is_sat = graph.is_sat_node(v)
            if u_is_sat == v_is_sat:
                continue  # ISL or terrestrial fiber: weather-immune.
            gt_node, sat_node = (v, u) if u_is_sat else (u, v)
            gt_index = gt_node - graph.num_sats
            gt_ecef = graph.gt_ecef[gt_index]
            sat_ecef = graph.sat_ecef[sat_node]
            lat, lon, _ = ecef_to_geodetic(gt_ecef)
            lat_list.append(float(lat))
            lon_list.append(float(lon))
            elev_list.append(float(compute_elevation_deg(gt_ecef, sat_ecef)))
            uplink_flags.append(not u_is_sat)
            path_ids.append(path_id)

    result = np.full(len(paths), np.nan)
    if not path_ids:
        return result
    lats = np.asarray(lat_list)
    lons = np.asarray(lon_list)
    elevs = np.asarray(elev_list)
    uplinks = np.asarray(uplink_flags, dtype=bool)
    ids = np.asarray(path_ids, dtype=np.int64)

    attenuations = np.empty(len(ids))
    if uplinks.any():
        attenuations[uplinks] = total_attenuation_db(
            lats[uplinks], lons[uplinks], elevs[uplinks], uplink_freq_ghz, exceedance_pct
        )
    if (~uplinks).any():
        attenuations[~uplinks] = total_attenuation_db(
            lats[~uplinks],
            lons[~uplinks],
            elevs[~uplinks],
            downlink_freq_ghz,
            exceedance_pct,
        )
    np.fmax.at(result, ids, attenuations)
    return result


def worst_link_attenuation_db(
    graph: SnapshotGraph,
    path_nodes,
    exceedance_pct: float = 0.5,
    endpoints_only: bool = False,
) -> float:
    """The paper's per-path weather metric: max attenuation over radio hops.

    BP paths expose every up/down bounce; ISL paths (``endpoints_only``)
    expose only the first and last hop, whichever is worse. Assumes
    signal regeneration at each GT (paper Section 6), so attenuations do
    not compound multiplicatively along the path.
    """
    links = path_link_attenuations_db(
        graph, path_nodes, exceedance_pct, endpoints_only=endpoints_only
    )
    if not links:
        return 0.0
    return max(link.attenuation_db for link in links)
