"""Plain geometry the tests check the library's fast paths against.

:func:`ecef_to_eci` inverts :func:`repro.orbits.coordinates.eci_to_ecef`
for its round-trip tests, and :func:`initial_bearing_deg` is the
azimuth the GSO-separation test scores surviving edges with. Neither
is needed by the library itself.
"""

from __future__ import annotations

import numpy as np

from repro.orbits.coordinates import earth_rotation_angle_rad, rotation_z


def ecef_to_eci(positions_ecef: np.ndarray, time_s: float) -> np.ndarray:
    """Inverse of :func:`repro.orbits.coordinates.eci_to_ecef`."""
    rot = rotation_z(earth_rotation_angle_rad(time_s))
    return np.asarray(positions_ecef, dtype=float) @ rot.T


def initial_bearing_deg(lat1_deg, lon1_deg, lat2_deg, lon2_deg):
    """Initial great-circle bearing from point 1 to point 2, degrees in [0, 360)."""
    lat1, lon1, lat2, lon2 = (
        np.radians(np.asarray(v, dtype=float))
        for v in (lat1_deg, lon1_deg, lat2_deg, lon2_deg)
    )
    dlon = lon2 - lon1
    x = np.sin(dlon) * np.cos(lat2)
    y = np.cos(lat1) * np.sin(lat2) - np.sin(lat1) * np.cos(lat2) * np.cos(dlon)
    return np.mod(np.degrees(np.arctan2(x, y)), 360.0)
