"""Ground-satellite visibility geometry.

Primitives for deciding which satellites a ground transceiver (GT) can
use: elevation angles, coverage cones, and the GSO arc-avoidance masking
of Section 7 / Fig. 9.
"""

from __future__ import annotations

import numpy as np

from repro.constants import EARTH_RADIUS, GSO_ALTITUDE_M
from repro.orbits.coordinates import geodetic_to_ecef

__all__ = [
    "elevation_deg",
    "coverage_central_angle_rad",
    "enu_basis",
    "direction_to_enu",
    "gso_arc_directions_enu",
    "min_gso_separation_deg",
    "gso_compliant",
    "reachable_sky_fraction",
]


def elevation_deg(gt_ecef: np.ndarray, sat_ecef: np.ndarray) -> np.ndarray:
    """Elevation of satellites above each GT's local horizon, degrees.

    ``gt_ecef`` has shape ``(..., 3)`` and ``sat_ecef`` broadcasts against
    it. The elevation is the angle between the GT->satellite line of sight
    and the local horizontal plane (whose normal is the GT zenith).
    """
    gt = np.asarray(gt_ecef, dtype=float)
    sat = np.asarray(sat_ecef, dtype=float)
    los = sat - gt
    los_norm = np.linalg.norm(los, axis=-1)
    gt_norm = np.linalg.norm(gt, axis=-1)
    # sin(elevation) = (los . zenith) / |los|, zenith = gt / |gt|.
    sin_elev = np.sum(los * gt, axis=-1) / np.where(
        (los_norm * gt_norm) == 0.0, 1.0, los_norm * gt_norm
    )
    return np.degrees(np.arcsin(np.clip(sin_elev, -1.0, 1.0)))


def coverage_central_angle_rad(altitude_m: float, min_elevation_deg: float) -> float:
    """Earth central angle of a satellite's coverage cone, radians.

    A GT sees the satellite at elevation >= ``min_elevation_deg`` exactly
    when the central angle between GT and sub-satellite point is at most
    this value (spherical Earth).
    """
    elev = np.radians(min_elevation_deg)
    ratio = EARTH_RADIUS / (EARTH_RADIUS + altitude_m)
    return float(np.arccos(ratio * np.cos(elev)) - elev)


# --- Local ENU frames and GSO arc avoidance (Section 7, Fig. 9) --------------


def enu_basis(lat_deg: float, lon_deg: float) -> np.ndarray:
    """East/North/Up unit vectors at a geodetic location, rows of a 3x3 array."""
    lat, lon = np.radians(lat_deg), np.radians(lon_deg)
    east = np.array([-np.sin(lon), np.cos(lon), 0.0])
    north = np.array(
        [-np.sin(lat) * np.cos(lon), -np.sin(lat) * np.sin(lon), np.cos(lat)]
    )
    up = np.array([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)])
    return np.vstack([east, north, up])


def direction_to_enu(gt_lat_deg: float, gt_lon_deg: float, target_ecef: np.ndarray) -> np.ndarray:
    """Unit direction(s) from a ground point to ECEF target(s), in ENU axes."""
    gt = geodetic_to_ecef(gt_lat_deg, gt_lon_deg, 0.0)
    los = np.asarray(target_ecef, dtype=float) - gt
    norm = np.linalg.norm(los, axis=-1, keepdims=True)
    los = los / np.where(norm == 0.0, 1.0, norm)
    basis = enu_basis(gt_lat_deg, gt_lon_deg)
    return los @ basis.T


def gso_arc_directions_enu(
    gt_lat_deg: float, gt_lon_deg: float = 0.0, num_points: int = 361
) -> np.ndarray:
    """ENU directions from a GT to visible points of the geostationary arc.

    The GSO arc is the ring of geostationary orbital slots above the
    Equator. Only the portion above the GT's horizon matters for
    interference; points below the horizon are dropped. Shape ``(m, 3)``
    (``m`` can be zero at extreme latitudes where no GSO point is visible).
    """
    arc_lons = gt_lon_deg + np.linspace(-90.0, 90.0, num_points)
    arc_ecef = geodetic_to_ecef(
        np.zeros_like(arc_lons), arc_lons, np.full_like(arc_lons, GSO_ALTITUDE_M)
    )
    directions = direction_to_enu(gt_lat_deg, gt_lon_deg, arc_ecef)
    above_horizon = directions[:, 2] > 0.0
    return directions[above_horizon]


def min_gso_separation_deg(
    gt_lat_deg: float,
    elevation_deg_: np.ndarray,
    azimuth_deg: np.ndarray,
    gt_lon_deg: float = 0.0,
) -> np.ndarray:
    """Minimum angular separation of sky directions from the GSO arc, degrees.

    Sky directions are given as elevation/azimuth (azimuth clockwise from
    North, as usual). For GTs that cannot see the GSO arc at all, returns
    180 degrees everywhere.
    """
    elev = np.radians(np.asarray(elevation_deg_, dtype=float))
    azim = np.radians(np.asarray(azimuth_deg, dtype=float))
    directions = np.stack(
        [np.cos(elev) * np.sin(azim), np.cos(elev) * np.cos(azim), np.sin(elev)],
        axis=-1,
    )
    arc = gso_arc_directions_enu(gt_lat_deg, gt_lon_deg)
    if len(arc) == 0:
        return np.full(np.shape(elevation_deg_), 180.0)
    cosines = directions @ arc.T
    max_cos = np.max(cosines, axis=-1)
    return np.degrees(np.arccos(np.clip(max_cos, -1.0, 1.0)))


def gso_compliant(
    gt_lat_deg: float,
    elevation_deg_: np.ndarray,
    azimuth_deg: np.ndarray,
    min_separation_deg: float,
    gt_lon_deg: float = 0.0,
) -> np.ndarray:
    """Whether sky directions keep the required separation from the GSO arc."""
    separation = min_gso_separation_deg(
        gt_lat_deg, elevation_deg_, azimuth_deg, gt_lon_deg
    )
    return separation >= min_separation_deg


def reachable_sky_fraction(
    gt_lat_deg: float,
    min_elevation_deg: float,
    gso_separation_deg: float,
    resolution: int = 181,
) -> float:
    """Fraction of the above-minimum-elevation sky a GT may actually use.

    This is the Fig. 9 quantity: at the Equator with Starlink's
    full-deployment parameters (e = 40 deg, separation = 22 deg) only two
    small elevation lobes remain reachable; at high latitudes the GSO arc
    sits low in the sky and barely constrains anything. The fraction is
    computed over a solid-angle-weighted elevation/azimuth grid.
    """
    elevations = np.linspace(min_elevation_deg, 90.0, resolution)
    azimuths = np.linspace(0.0, 360.0, 2 * resolution, endpoint=False)
    elev_grid, azim_grid = np.meshgrid(elevations, azimuths, indexing="ij")
    compliant = gso_compliant(
        gt_lat_deg, elev_grid, azim_grid, gso_separation_deg
    )
    # Solid angle element scales with cos(elevation).
    weights = np.cos(np.radians(elev_grid))
    total = float(np.sum(weights))
    if total == 0.0:
        return 0.0
    return float(np.sum(weights * compliant) / total)
