"""Spherical geodesy: distances, bearings, and great-circle interpolation.

Everything here works on a spherical Earth of radius
:data:`repro.constants.EARTH_RADIUS`, which matches the paper's geometric
model. Functions accept scalars or numpy arrays (broadcasting) and angles
in degrees unless suffixed ``_rad``.
"""

from __future__ import annotations

import numpy as np

from repro.constants import EARTH_RADIUS

__all__ = [
    "haversine_m",
    "central_angle_rad",
    "destination_point",
    "great_circle_points",
    "midpoint",
    "unit_vectors",
    "lonlat_from_unit_vectors",
    "normalize_lon_deg",
]


def _to_rad(*values):
    return tuple(np.radians(np.asarray(v, dtype=float)) for v in values)


def central_angle_rad(lat1_deg, lon1_deg, lat2_deg, lon2_deg):
    """Central angle between two points, in radians (haversine formula).

    Numerically stable for both antipodal and very close points. Accepts
    arrays; broadcasts like numpy.
    """
    lat1, lon1, lat2, lon2 = _to_rad(lat1_deg, lon1_deg, lat2_deg, lon2_deg)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    a = np.sin(dlat / 2.0) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2.0) ** 2
    a = np.clip(a, 0.0, 1.0)
    return 2.0 * np.arcsin(np.sqrt(a))


def haversine_m(lat1_deg, lon1_deg, lat2_deg, lon2_deg):
    """Great-circle distance between two points in metres."""
    return EARTH_RADIUS * central_angle_rad(lat1_deg, lon1_deg, lat2_deg, lon2_deg)


def destination_point(lat_deg, lon_deg, bearing_deg, distance_m):
    """Point reached travelling ``distance_m`` along ``bearing_deg``.

    Returns ``(lat_deg, lon_deg)`` with longitude normalized to [-180, 180).
    """
    lat1, lon1, bearing = _to_rad(lat_deg, lon_deg, bearing_deg)
    angular = np.asarray(distance_m, dtype=float) / EARTH_RADIUS
    sin_lat2 = np.sin(lat1) * np.cos(angular) + np.cos(lat1) * np.sin(angular) * np.cos(bearing)
    sin_lat2 = np.clip(sin_lat2, -1.0, 1.0)
    lat2 = np.arcsin(sin_lat2)
    y = np.sin(bearing) * np.sin(angular) * np.cos(lat1)
    x = np.cos(angular) - np.sin(lat1) * sin_lat2
    lon2 = lon1 + np.arctan2(y, x)
    return np.degrees(lat2), normalize_lon_deg(np.degrees(lon2))


def normalize_lon_deg(lon_deg):
    """Wrap longitudes into [-180, 180)."""
    return np.mod(np.asarray(lon_deg, dtype=float) + 180.0, 360.0) - 180.0


def midpoint(lat1_deg, lon1_deg, lat2_deg, lon2_deg):
    """Great-circle midpoint of two points, as ``(lat_deg, lon_deg)``."""
    lats, lons = great_circle_points(lat1_deg, lon1_deg, lat2_deg, lon2_deg, 3)
    return float(lats[1]), float(lons[1])


def unit_vectors(lat_deg, lon_deg):
    """Unit ECEF-style direction vectors for points on the sphere.

    Returns an array of shape ``(..., 3)``. Useful for dot-product based
    angular computations and slerp interpolation.
    """
    lat, lon = _to_rad(lat_deg, lon_deg)
    cos_lat = np.cos(lat)
    return np.stack(
        [cos_lat * np.cos(lon), cos_lat * np.sin(lon), np.sin(lat)], axis=-1
    )


def lonlat_from_unit_vectors(vectors):
    """Inverse of :func:`unit_vectors`; returns ``(lat_deg, lon_deg)`` arrays."""
    v = np.asarray(vectors, dtype=float)
    norm = np.linalg.norm(v, axis=-1, keepdims=True)
    v = v / np.where(norm == 0.0, 1.0, norm)
    lat = np.degrees(np.arcsin(np.clip(v[..., 2], -1.0, 1.0)))
    lon = np.degrees(np.arctan2(v[..., 1], v[..., 0]))
    return lat, lon


def great_circle_points(lat1_deg, lon1_deg, lat2_deg, lon2_deg, num_points):
    """``num_points`` evenly spaced points along the great circle (inclusive).

    Spherical linear interpolation between the endpoint unit vectors.
    Returns ``(lats, lons)`` arrays of length ``num_points``. Endpoints are
    reproduced exactly (up to floating point). For antipodal endpoints the
    great circle is ambiguous; we perturb infinitesimally via the numeric
    fallback of slerp and still return a valid connecting arc.
    """
    if num_points < 2:
        raise ValueError("num_points must be >= 2")
    v1 = unit_vectors(lat1_deg, lon1_deg)
    v2 = unit_vectors(lat2_deg, lon2_deg)
    dot = float(np.clip(np.dot(v1, v2), -1.0, 1.0))
    omega = np.arccos(dot)
    fractions = np.linspace(0.0, 1.0, num_points)
    if omega < 1e-12:
        points = np.repeat(v1[None, :], num_points, axis=0)
    elif np.pi - omega < 1e-9:
        # Antipodal: pick an arbitrary orthogonal axis to route through.
        axis = np.cross(v1, [0.0, 0.0, 1.0])
        if np.linalg.norm(axis) < 1e-12:
            axis = np.cross(v1, [0.0, 1.0, 0.0])
        axis = axis / np.linalg.norm(axis)
        halfway = np.cross(axis, v1)
        first = _slerp(v1, halfway, fractions[fractions <= 0.5] * 2.0)
        second = _slerp(halfway, v2, (fractions[fractions > 0.5] - 0.5) * 2.0)
        points = np.vstack([first, second])
    else:
        points = _slerp(v1, v2, fractions, omega=omega)
    lats, lons = lonlat_from_unit_vectors(points)
    return lats, lons


def _slerp(v1, v2, fractions, omega=None):
    if omega is None:
        omega = np.arccos(float(np.clip(np.dot(v1, v2), -1.0, 1.0)))
    if omega < 1e-12:
        return np.repeat(np.asarray(v1)[None, :], len(fractions), axis=0)
    sin_omega = np.sin(omega)
    f = np.asarray(fractions)[:, None]
    return (np.sin((1.0 - f) * omega) * v1 + np.sin(f * omega) * v2) / sin_omega
