"""Total slant-path attenuation and radio-hop weather analysis.

Combines the component models per ITU-R P.618 section 2.5:

    A_T(p) = A_gas + sqrt((A_rain(p) + A_cloud)^2 + A_scint(p)^2)

and scores radio hops with it: the paper's Section 6 path metric is the
*worst* link attenuation along an end-to-end path (BP paths bounce
through many GT-satellite radio hops; ISL paths expose only the first
and last radio hop), and the MODCOD extension derates every radio edge
of a snapshot by its attenuation. Both go through one vectorized hop
scorer. Free-space path loss is excluded by design — the paper assumes
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
from repro.network.modcod import weather_capacity_factor
from repro.orbits.coordinates import ecef_to_geodetic
from repro.orbits.visibility import elevation_deg as compute_elevation_deg

__all__ = [
    "total_attenuation_db",
    "attenuation_to_power_fraction",
    "LinkWeather",
    "path_link_attenuations_db",
    "paths_worst_link_attenuation_db",
    "edge_weather_capacity_factors",
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


def _score_radio_hops(graph: SnapshotGraph, sats, gts, uplink, exceedance_pct):
    """``(lat, lon, elevation, attenuation_db)`` of radio hops.

    A hop is a satellite index, a GT station index and whether it is
    the up-link (GT -> satellite, 14.25 GHz for Starlink's Ku band) or
    the down-link (11.7 GHz); one :func:`total_attenuation_db` call per
    direction scores them all.
    """
    gt_pos = graph.gt_ecef[gts]
    lats, lons, _ = ecef_to_geodetic(gt_pos)
    elevations = compute_elevation_deg(gt_pos, graph.sat_ecef[sats])
    attenuation = np.empty(len(gts))
    for direction, freq in ((uplink, UPLINK_FREQ_GHZ), (~uplink, DOWNLINK_FREQ_GHZ)):
        if direction.any():
            attenuation[direction] = total_attenuation_db(
                lats[direction],
                lons[direction],
                elevations[direction],
                freq,
                exceedance_pct,
            )
    return lats, lons, elevations, attenuation


def _path_radio_hops(graph: SnapshotGraph, paths, endpoints_only: bool):
    """``(path id, satellite, GT index, up-link?)`` of the paths' radio hops.

    Hops keep path order. ISL and terrestrial fiber hops (Section 8) are
    weather-immune and dropped. With ``endpoints_only`` (the paper's
    ISL-path accounting) each path keeps only its first and last radio
    hop; nothing checks that the path has no GT bounce in between, and
    that bounce's weather is then ignored (ROADMAP.md item 1).
    """
    routed = [i for i, p in enumerate(paths) if p is not None]
    nodes = [np.asarray(paths[i], dtype=np.int64) for i in routed]
    flat = np.concatenate([np.empty(0, dtype=np.int64)] + nodes)
    owner = np.repeat(np.asarray(routed, dtype=np.int64), [len(n) for n in nodes])
    hop = owner[1:] == owner[:-1]  # Consecutive nodes of one path.
    ids, u, v = owner[1:][hop], flat[:-1][hop], flat[1:][hop]
    uplink = u >= graph.num_sats  # Leaving a GT: GT -> satellite.
    radio = uplink != (v >= graph.num_sats)
    ids, u, v, uplink = ids[radio], u[radio], v[radio], uplink[radio]
    if endpoints_only:
        ends = (np.diff(ids, prepend=-1) != 0) | (np.diff(ids, append=-1) != 0)
        ids, u, v, uplink = ids[ends], u[ends], v[ends], uplink[ends]
    sats = np.where(uplink, v, u)
    gts = np.where(uplink, u, v) - graph.num_sats
    return ids, sats, gts, uplink


def path_link_attenuations_db(
    graph: SnapshotGraph,
    path_nodes,
    exceedance_pct: float = 0.5,
    endpoints_only: bool = False,
) -> list[LinkWeather]:
    """Attenuation of every GT-satellite hop along a node path, in order.

    Hops leaving a GT are up-links, hops arriving at a GT down-links.
    With ``endpoints_only`` only the first and last radio hop are kept.
    """
    _, sats, gts, uplink = _path_radio_hops(graph, [path_nodes], endpoints_only)
    scores = _score_radio_hops(graph, sats, gts, uplink, exceedance_pct)
    return [
        LinkWeather(
            gt_node=int(gt) + graph.num_sats,
            sat_node=int(sat),
            gt_lat_deg=float(lat),
            gt_lon_deg=float(lon),
            elevation_deg=float(elevation),
            freq_ghz=UPLINK_FREQ_GHZ if up else DOWNLINK_FREQ_GHZ,
            is_uplink=bool(up),
            attenuation_db=float(attenuation),
        )
        for sat, gt, up, lat, lon, elevation, attenuation in zip(
            sats, gts, uplink, *scores
        )
    ]


def paths_worst_link_attenuation_db(
    graph: SnapshotGraph,
    paths,
    exceedance_pct: float = 0.5,
    endpoints_only: bool = False,
) -> np.ndarray:
    """The paper's per-path weather metric: max attenuation over radio hops, dB.

    ``paths`` is a sequence of node sequences; ``None`` entries and
    paths without a radio hop yield NaN. BP paths expose every up/down
    bounce; ISL paths (``endpoints_only``) only the first and last radio
    hop. Assumes signal regeneration at each GT (paper Section 6), so
    attenuations do not compound along the path.
    """
    ids, sats, gts, uplink = _path_radio_hops(graph, paths, endpoints_only)
    result = np.full(len(paths), np.nan)
    attenuation = _score_radio_hops(graph, sats, gts, uplink, exceedance_pct)[3]
    np.fmax.at(result, ids, attenuation)
    return result


def edge_weather_capacity_factors(
    graph: SnapshotGraph, exceedance_pct: float = 0.5
) -> np.ndarray:
    """MODCOD capacity factor per edge (1.0 for ISL and fiber edges).

    A radio link carries both directions; it is derated by the *worse*
    of its up- and down-link attenuations (a single struggling direction
    stalls the bidirectional abstraction our flows use). Radio rows are
    edge ids ``[0, len(gt))`` of ``graph.sat_rows``, so the edge table is
    not built. The factors multiply the edge capacities in
    :func:`repro.flows.throughput.evaluate_throughput`.
    """
    start, gts, _ = graph.sat_rows
    radio = len(gts)
    sats = np.repeat(np.arange(graph.num_sats), np.diff(start))
    uplink = np.arange(2 * radio) < radio
    attenuation = _score_radio_hops(
        graph, np.tile(sats, 2), np.tile(gts, 2), uplink, exceedance_pct
    )[3]
    factors = np.ones(graph.num_edges)
    factors[:radio] = weather_capacity_factor(
        np.maximum(attenuation[:radio], attenuation[radio:])
    )
    return factors
