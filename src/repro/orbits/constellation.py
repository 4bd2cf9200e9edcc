"""Constellation shells: Walker-delta generation and vectorized propagation.

A *shell* is a set of "parallel" orbital planes sharing one altitude and
inclination, with planes crossing the Equator at uniform RAAN separation
(paper Section 2). A *constellation* is one or more shells; the paper's
quantitative analysis uses single-shell Starlink and Kuiper models, while
Section 8 (Fig. 10) adds a polar shell for cross-shell experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constants import coverage_radius_m
from repro.orbits.coordinates import eci_to_ecef
from repro.orbits.kepler import propagate_circular

__all__ = ["Shell", "Constellation", "walker_delta_elements"]


def walker_delta_elements(
    num_planes: int,
    sats_per_plane: int,
    altitude_m: float,
    inclination_deg: float,
    phase_offset_fraction: float = 0.5,
    raan_spread_deg: float = 360.0,
):
    """Orbital elements for a Walker-delta shell.

    Planes are spread uniformly over ``raan_spread_deg`` of RAAN (360 for
    delta patterns like Starlink/Kuiper; 180 would give a star pattern).
    Satellites within a plane are uniformly spaced in argument of latitude.
    Adjacent planes are phase-shifted by ``phase_offset_fraction`` of the
    intra-plane spacing — the usual Walker phasing that staggers coverage
    and keeps cross-plane ISL partners nearby.

    Returns four float arrays ``(altitude_m, inclination_deg, raan_deg,
    phase_deg)`` each of length ``num_planes * sats_per_plane``, ordered
    plane-major (satellite index ``p * sats_per_plane + s``).
    """
    if num_planes < 1 or sats_per_plane < 1:
        raise ValueError("num_planes and sats_per_plane must be positive")
    total = num_planes * sats_per_plane
    plane_idx = np.repeat(np.arange(num_planes), sats_per_plane)
    slot_idx = np.tile(np.arange(sats_per_plane), num_planes)

    raan = plane_idx * (raan_spread_deg / num_planes)
    intra_spacing = 360.0 / sats_per_plane
    phase = (slot_idx + phase_offset_fraction * plane_idx) * intra_spacing
    phase = np.mod(phase, 360.0)

    return (
        np.full(total, float(altitude_m)),
        np.full(total, float(inclination_deg)),
        raan.astype(float),
        phase.astype(float),
    )


@dataclass(frozen=True)
class Shell:
    """One orbital shell: geometry plus connectivity parameters.

    ``min_elevation_deg`` is a ground-segment parameter but lives here
    because the filings tie it to the shell design (it fixes the coverage
    radius together with the altitude).
    """

    name: str
    num_planes: int
    sats_per_plane: int
    altitude_m: float
    inclination_deg: float
    min_elevation_deg: float
    phase_offset_fraction: float = 0.5
    raan_spread_deg: float = 360.0
    #: Apply J2 secular perturbations during propagation. Off by default
    #: (the paper's geometric model). Within one shell J2 acts as a rigid
    #: RAAN rotation plus a common along-track advance, so intra-plane
    #: ISLs are untouched and cross-plane ISLs stay within the length
    #: envelope they already sweep each orbit.
    j2: bool = False

    @property
    def num_satellites(self) -> int:
        return self.num_planes * self.sats_per_plane

    @property
    def coverage_radius_m(self) -> float:
        """Great-circle radius of each satellite's ground coverage cone."""
        return coverage_radius_m(self.altitude_m, self.min_elevation_deg)

    def elements(self):
        """Walker-delta orbital elements for every satellite in the shell."""
        return walker_delta_elements(
            self.num_planes,
            self.sats_per_plane,
            self.altitude_m,
            self.inclination_deg,
            self.phase_offset_fraction,
            self.raan_spread_deg,
        )

    def positions_eci(self, time_s: float) -> np.ndarray:
        """ECI positions of all satellites at ``time_s``, shape ``(n, 3)``."""
        alt, inc, raan, phase = self.elements()
        return propagate_circular(alt, inc, raan, phase, time_s, j2=self.j2)

    def positions_ecef(self, time_s: float) -> np.ndarray:
        """Earth-fixed positions of all satellites at ``time_s``."""
        return eci_to_ecef(self.positions_eci(time_s), time_s)


@dataclass(frozen=True)
class Constellation:
    """An ordered collection of shells with a flat satellite index space.

    Satellites are numbered shell-major: shell 0's satellites come first.
    The flat index space is what the network graph layer uses.
    """

    name: str
    shells: tuple[Shell, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not self.shells:
            raise ValueError("a constellation needs at least one shell")

    @property
    def num_satellites(self) -> int:
        return sum(shell.num_satellites for shell in self.shells)

    def shell_offsets(self) -> list[int]:
        """Flat index of the first satellite of each shell."""
        offsets, total = [], 0
        for shell in self.shells:
            offsets.append(total)
            total += shell.num_satellites
        return offsets

    def shell_of(self, sat_index: int):
        """Return ``(shell_index, local_index)`` for a flat satellite index."""
        if sat_index < 0:
            raise IndexError(f"satellite index {sat_index} out of range")
        remaining = sat_index
        for shell_index, shell in enumerate(self.shells):
            if remaining < shell.num_satellites:
                return shell_index, remaining
            remaining -= shell.num_satellites
        raise IndexError(f"satellite index {sat_index} out of range")

    def positions_ecef(self, time_s: float) -> np.ndarray:
        """Earth-fixed positions of every satellite, shape ``(total, 3)``."""
        return np.vstack([shell.positions_ecef(time_s) for shell in self.shells])
