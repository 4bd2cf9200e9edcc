"""Orbital mechanics substrate: propagation, frames, shells, visibility."""

from repro.orbits.constellation import Constellation, Shell, walker_delta_elements
from repro.orbits.coverage import (
    latitude_coverage_profile,
    max_served_latitude_deg,
    visible_satellite_counts,
)
from repro.orbits.coordinates import (
    ecef_to_geodetic,
    eci_to_ecef,
    geodetic_to_ecef,
)
from repro.orbits.kepler import (
    J2,
    j2_arglat_rate_correction_rad_s,
    mean_motion_rad_s,
    nodal_precession_rate_rad_s,
    propagate_circular,
)
from repro.orbits.presets import (
    PRESET_NAMES,
    kuiper,
    kuiper_shell,
    polar_shell,
    preset,
    starlink,
    starlink_shell,
    starlink_with_polar,
)
from repro.orbits.visibility import (
    coverage_central_angle_rad,
    elevation_deg,
    reachable_sky_fraction,
)

__all__ = [
    "Constellation",
    "Shell",
    "walker_delta_elements",
    "propagate_circular",
    "mean_motion_rad_s",
    "J2",
    "nodal_precession_rate_rad_s",
    "j2_arglat_rate_correction_rad_s",
    "eci_to_ecef",
    "geodetic_to_ecef",
    "ecef_to_geodetic",
    "starlink",
    "kuiper",
    "starlink_shell",
    "kuiper_shell",
    "polar_shell",
    "starlink_with_polar",
    "preset",
    "PRESET_NAMES",
    "visible_satellite_counts",
    "latitude_coverage_profile",
    "max_served_latitude_deg",
    "elevation_deg",
    "coverage_central_angle_rad",
    "reachable_sky_fraction",
]
