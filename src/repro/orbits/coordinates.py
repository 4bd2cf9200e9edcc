"""Coordinate frames: ECI, ECEF, and geodetic (spherical Earth).

Frames
------
ECI
    Earth-centred inertial. X towards the vernal equinox at epoch, Z along
    the rotation axis. Satellite propagation happens here.
ECEF
    Earth-centred Earth-fixed. Rotates with the Earth at
    :data:`repro.constants.EARTH_ROTATION_RATE`; ground stations are static
    in this frame. At simulation epoch ``t = 0`` the two frames coincide
    (Greenwich sidereal angle zero), which is a free choice of epoch.
Geodetic
    ``(lat_deg, lon_deg, altitude_m)`` on a spherical Earth.

All positions are metres; arrays use shape ``(..., 3)``.
"""

from __future__ import annotations

import numpy as np

from repro.constants import EARTH_RADIUS, EARTH_ROTATION_RATE

__all__ = [
    "earth_rotation_angle_rad",
    "eci_to_ecef",
    "geodetic_to_ecef",
    "ecef_to_geodetic",
    "rotation_z",
]


def earth_rotation_angle_rad(time_s: float) -> float:
    """Greenwich sidereal rotation angle at ``time_s`` seconds past epoch."""
    return (EARTH_ROTATION_RATE * time_s) % (2.0 * np.pi)


def rotation_z(angle_rad: float) -> np.ndarray:
    """Rotation matrix about the Z axis by ``angle_rad`` (right-handed)."""
    c, s = np.cos(angle_rad), np.sin(angle_rad)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def eci_to_ecef(positions_eci: np.ndarray, time_s: float) -> np.ndarray:
    """Rotate ECI positions into the Earth-fixed frame at ``time_s``.

    The ECEF frame has rotated eastward by the sidereal angle, so fixed
    inertial positions appear to rotate westward: we apply the inverse
    (negative-angle) rotation.
    """
    theta = earth_rotation_angle_rad(time_s)
    rot = rotation_z(-theta)
    return np.asarray(positions_eci, dtype=float) @ rot.T


def geodetic_to_ecef(lat_deg, lon_deg, altitude_m=0.0) -> np.ndarray:
    """Geodetic coordinates to ECEF positions, shape ``(..., 3)`` metres."""
    lat = np.radians(np.asarray(lat_deg, dtype=float))
    lon = np.radians(np.asarray(lon_deg, dtype=float))
    radius = EARTH_RADIUS + np.asarray(altitude_m, dtype=float)
    cos_lat = np.cos(lat)
    return np.stack(
        [
            radius * cos_lat * np.cos(lon),
            radius * cos_lat * np.sin(lon),
            radius * np.sin(lat),
        ],
        axis=-1,
    )


def ecef_to_geodetic(positions_ecef: np.ndarray):
    """ECEF positions to ``(lat_deg, lon_deg, altitude_m)`` arrays."""
    pos = np.asarray(positions_ecef, dtype=float)
    radius = np.linalg.norm(pos, axis=-1)
    safe_radius = np.where(radius == 0.0, 1.0, radius)
    lat = np.degrees(np.arcsin(np.clip(pos[..., 2] / safe_radius, -1.0, 1.0)))
    lon = np.degrees(np.arctan2(pos[..., 1], pos[..., 0]))
    altitude = radius - EARTH_RADIUS
    return lat, lon, altitude
