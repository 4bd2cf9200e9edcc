"""+Grid inter-satellite link topology (paper Section 2).

Each satellite connects to four neighbours: the two adjacent satellites
in its own orbital plane, and the same-slot satellite in each adjacent
plane. These partners travel with nearly constant relative geometry, so
the links can stay up continuously — the property that makes +Grid the
de-facto standard ISL topology. ISLs never cross shells (Section 8:
cross-shell ISLs would be short-lived; Starlink's filings budget exactly
the 4 intra-shell ISLs).
"""

from __future__ import annotations

import numpy as np

from repro.orbits.constellation import Constellation, Shell

__all__ = ["plus_grid_edges", "constellation_isl_edges", "isl_lengths_m"]


def plus_grid_edges(shell: Shell) -> np.ndarray:
    """+Grid ISL edges for one shell, as an ``(m, 2)`` array of sat indices.

    Indices are shell-local and plane-major (``p * sats_per_plane + s``).
    Each undirected edge appears once. For a shell with P planes and S
    satellites per plane the count is ``P*S`` intra-plane edges plus
    ``P*S`` cross-plane edges (both rings wrap), except that degenerate
    rings (P < 3 or S < 3) drop the wraparound duplicates. A Walker-star
    shell (planes spread over less than 360 deg of RAAN) has a seam: its
    last plane and plane 0 run in opposite directions side by side, so
    the cross-plane ring does not wrap there (Iridium-style shells carry
    no cross-seam ISL) and the count drops by ``S``.
    """
    num_planes, per_plane = shell.num_planes, shell.sats_per_plane
    planes = np.repeat(np.arange(num_planes, dtype=np.int64), per_plane)
    slots = np.tile(np.arange(per_plane, dtype=np.int64), num_planes)
    here = planes * per_plane + slots

    # Intra-plane successor; a 2-satellite ring has only one edge.
    intra_to = planes * per_plane + (slots + 1) % per_plane
    intra_ok = np.full(here.shape, per_plane > 1)
    if per_plane == 2:
        intra_ok &= slots != 1

    # Cross-plane neighbour: phase-nearest slot in the next plane.
    # Walker phasing staggers plane p by ``f * p`` slots; the same-slot
    # satellite in the next plane is therefore offset by ``f`` slots —
    # and at the seam (last plane -> plane 0) by ``f * (num_planes-1)``
    # slots, nearly half an orbit for Starlink. Linking to the
    # phase-nearest slot keeps every ISL short and seam-free. Half-up
    # rounding (not banker's): a constant fractional shift must map
    # slots 1:1 or some satellites end up with degree 3 and 5.
    next_plane = (planes + 1) % num_planes
    phase_shift = shell.phase_offset_fraction * (planes - next_plane)
    cross_slot = np.floor(slots + phase_shift + 0.5).astype(np.int64) % per_plane
    cross_to = next_plane * per_plane + cross_slot
    cross_ok = np.full(here.shape, num_planes > 1)
    if num_planes == 2 or shell.raan_spread_deg < 360.0:
        cross_ok &= planes != num_planes - 1

    # Interleave (intra, cross) per satellite — the exact append order
    # of the historical per-satellite loop, which edge ids depend on.
    rows = np.empty((len(here), 2, 2), dtype=np.int64)
    rows[:, 0, 0] = here
    rows[:, 0, 1] = intra_to
    rows[:, 1, 0] = here
    rows[:, 1, 1] = cross_to
    keep = np.stack([intra_ok, cross_ok], axis=1)
    return rows.reshape(-1, 2)[keep.reshape(-1)].reshape(-1, 2)


def constellation_isl_edges(constellation: Constellation) -> np.ndarray:
    """+Grid edges for every shell, in the constellation's flat index space."""
    parts = []
    for offset, shell in zip(constellation.shell_offsets(), constellation.shells):
        parts.append(plus_grid_edges(shell) + offset)
    if not parts:
        return np.empty((0, 2), dtype=np.int64)
    return np.vstack(parts)


def isl_lengths_m(edges: np.ndarray, sat_positions: np.ndarray) -> np.ndarray:
    """Euclidean ISL lengths given satellite positions, metres.

    +Grid ISLs are straight lines between satellites. For the paper's
    shells they clear the atmosphere by a wide margin; the strict graph
    guard checks every ISL row
    (:func:`repro.network.graph.isl_grazing_altitude_m`).
    """
    diffs = sat_positions[edges[:, 0]] - sat_positions[edges[:, 1]]
    return np.linalg.norm(diffs, axis=1)
