"""Circular-orbit Keplerian propagation (optionally J2-perturbed).

The constellations the paper models (Starlink phase 1, Kuiper phase 1) fly
circular orbits, so propagation reduces to a uniformly advancing argument
of latitude. This module propagates one orbit or whole arrays of orbital
elements, fully vectorized.

Earth's oblateness (the J2 harmonic) adds two secular effects relevant at
LEO: the orbital plane precesses in RAAN (~-4.6 deg/day westward for
Starlink's shell) and the along-track rate shifts slightly. Within a
single Walker shell every plane precesses identically, so the shell's
*internal* geometry — and therefore every ISL — is untouched; what moves
is the shell relative to the rotating Earth. Propagation takes J2 as an
option (off by default to match the paper's geometric model; the test
suite checks the known rates).

Orbital elements used (circular orbit, so no eccentricity/argument of
perigee):

``altitude_m``
    Height above the spherical Earth surface.
``inclination_deg``
    Angle between the orbital plane and the equatorial plane.
``raan_deg``
    Right ascension of the ascending node: where the plane crosses the
    equator northbound, measured in the ECI equatorial plane.
``phase_deg``
    Argument of latitude at epoch: angle from the ascending node to the
    satellite, measured along the orbit.
"""

from __future__ import annotations

import numpy as np

from repro.constants import EARTH_MU, EARTH_RADIUS

__all__ = [
    "propagate_circular",
    "mean_motion_rad_s",
    "J2",
    "EQUATORIAL_RADIUS",
    "nodal_precession_rate_rad_s",
    "j2_arglat_rate_correction_rad_s",
]

#: Earth's second zonal harmonic (oblateness).
J2 = 1.08263e-3

#: Earth's equatorial radius, m (J2 formulas reference the equatorial
#: radius, not the mean radius used by the spherical geometry elsewhere).
EQUATORIAL_RADIUS = 6_378_137.0


def nodal_precession_rate_rad_s(altitude_m, inclination_deg):
    """Secular RAAN drift due to J2, rad/s (negative = westward).

    ``Omega_dot = -(3/2) n J2 (Re/a)^2 cos(i)`` for a circular orbit.
    For Starlink's 550 km / 53 deg shell this is about -4.6 deg/day —
    the rate operators exploit to spread planes without spending fuel.
    Vectorized over altitude/inclination.
    """
    semi_major = EARTH_RADIUS + np.asarray(altitude_m, dtype=float)
    n = np.sqrt(EARTH_MU / semi_major**3)
    inclination = np.radians(np.asarray(inclination_deg, dtype=float))
    return -1.5 * n * J2 * (EQUATORIAL_RADIUS / semi_major) ** 2 * np.cos(inclination)


def j2_arglat_rate_correction_rad_s(altitude_m, inclination_deg):
    """Secular correction to the argument-of-latitude rate due to J2, rad/s.

    For a circular orbit the argument-of-perigee and mean-anomaly secular
    rates combine into a single along-track correction,

        delta_u_dot = (3/4) n J2 (Re/a)^2 (3 - 4 sin^2 i),

    the standard nodal-rate form. At Starlink's shell it shifts the
    orbital period by a few seconds — negligible for the paper's
    analyses, but modelled for completeness.
    """
    semi_major = EARTH_RADIUS + np.asarray(altitude_m, dtype=float)
    n = np.sqrt(EARTH_MU / semi_major**3)
    inclination = np.radians(np.asarray(inclination_deg, dtype=float))
    sin2 = np.sin(inclination) ** 2
    return 0.75 * n * J2 * (EQUATORIAL_RADIUS / semi_major) ** 2 * (3.0 - 4.0 * sin2)


def mean_motion_rad_s(altitude_m: float) -> float:
    """Angular rate of a circular orbit at ``altitude_m``, rad/s."""
    semi_major_axis = EARTH_RADIUS + altitude_m
    return np.sqrt(EARTH_MU / semi_major_axis**3)


def propagate_circular(
    altitude_m: np.ndarray,
    inclination_deg: np.ndarray,
    raan_deg: np.ndarray,
    phase_deg: np.ndarray,
    time_s: float,
    j2: bool = False,
) -> np.ndarray:
    """ECI positions of circular orbits at ``time_s``, shape ``(n, 3)``.

    All element arrays must share shape ``(n,)``. The position of each
    satellite is obtained by rotating the in-plane position (argument of
    latitude ``u = phase + n*t``) by inclination about X and RAAN about Z:

        r_eci = Rz(raan) @ Rx(inclination) @ [r cos u, r sin u, 0]

    which is expanded component-wise below to stay allocation-light.
    """
    altitude_m = np.asarray(altitude_m, dtype=float)
    inclination = np.radians(np.asarray(inclination_deg, dtype=float))
    raan = np.radians(np.asarray(raan_deg, dtype=float))
    phase = np.radians(np.asarray(phase_deg, dtype=float))

    radius = EARTH_RADIUS + altitude_m
    arg_lat = phase + np.sqrt(EARTH_MU / radius**3) * time_s
    if j2:
        arg_lat = arg_lat + j2_arglat_rate_correction_rad_s(
            altitude_m, inclination_deg
        ) * time_s
        raan = raan + nodal_precession_rate_rad_s(altitude_m, inclination_deg) * time_s

    cos_u, sin_u = np.cos(arg_lat), np.sin(arg_lat)
    cos_i, sin_i = np.cos(inclination), np.sin(inclination)
    cos_raan, sin_raan = np.cos(raan), np.sin(raan)

    # In-plane coordinates rotated by inclination about the node line.
    x_orb = cos_u
    y_orb = sin_u * cos_i
    z_orb = sin_u * sin_i

    x = radius * (cos_raan * x_orb - sin_raan * y_orb)
    y = radius * (sin_raan * x_orb + cos_raan * y_orb)
    z = radius * z_orb
    return np.stack([x, y, z], axis=-1)
