"""Latitude/longitude grids and city-proximity grid selection.

Supports the paper's relay-GT placement rule: transit-only GTs sit on a
uniform 0.5-degree lat/lon grid, on land, within 2,000 km of one of the
1,000 source/sink cities (Section 3).
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from repro.constants import EARTH_RADIUS
from repro.geo.geodesy import unit_vectors
from repro.geo.landmask import is_land

__all__ = ["global_grid", "grid_points_near", "land_grid_points_near"]

#: Half-width, in dot-product units, of the band around ``cos(r / R)``
#: where :func:`grid_points_near` re-tests a point against every centre.
#: About 100x the rounding it has to cover (see the docstring there).
_DOT_BAND = 1e-12


def global_grid(spacing_deg: float):
    """All grid points at ``spacing_deg``, as ``(lats, lons)`` flat arrays.

    Latitudes span (-90, 90) exclusive (poles are degenerate); longitudes
    span [-180, 180).
    """
    if spacing_deg <= 0:
        raise ValueError("spacing_deg must be positive")
    lats = np.arange(-90.0 + spacing_deg, 90.0, spacing_deg)
    lons = np.arange(-180.0, 180.0, spacing_deg)
    lat_grid, lon_grid = np.meshgrid(lats, lons, indexing="ij")
    return lat_grid.ravel(), lon_grid.ravel()


def grid_points_near(
    centre_lats,
    centre_lons,
    radius_m: float,
    spacing_deg: float,
):
    """Grid points within ``radius_m`` of *any* centre point.

    The criterion is the dot product of unit vectors: a grid point ``g``
    is selected when ``g @ c >= cos(radius / R)`` for some centre ``c``.
    Returns ``(lats, lons)`` of the selected grid points.

    Rather than form the dense grid × centre dot matrix, every grid point
    is queried once in a KD-tree over the centre unit vectors for its
    nearest centre by chord length ``d`` — the centre with the largest
    dot product, ``1 - d**2 / 2`` for unit vectors. Points whose estimate
    lies more than :data:`_DOT_BAND` from ``cos(radius / R)`` are decided
    by it; points inside the band get the dense test against every
    centre.

    Exactness: the estimate and any computed dot ``g @ c`` differ from
    the exact dot of the (rounded) unit vectors by a few ulps of 1 —
    rounding in the squared chord, in ``|g|`` and ``|c|`` (which are 1
    only to within an ulp) and in the three-term sum, all below 1e-14.
    Outside the band the nearest centre's dot is on the same side of the
    threshold as its estimate, and no other centre's dot exceeds it by
    more than that rounding, so the dense test would decide the same
    way. The band is absolute in dot-product space: near a sub-metre
    radius ``1 - cos(radius / R)`` is itself only ~1e-14, and a band
    relative to the chord would shrink below the rounding it must cover.
    """
    grid_lats, grid_lons = global_grid(spacing_deg)
    centre_lats = np.atleast_1d(np.asarray(centre_lats, dtype=float))
    centre_lons = np.atleast_1d(np.asarray(centre_lons, dtype=float))
    if len(centre_lats) == 0:
        return grid_lats[:0], grid_lons[:0]

    # Cheap latitude prefilter: a point further than the radius in latitude
    # alone cannot be within range of any centre.
    radius_deg = np.degrees(radius_m / EARTH_RADIUS)
    lat_lo = centre_lats.min() - radius_deg
    lat_hi = centre_lats.max() + radius_deg
    keep = (grid_lats >= lat_lo) & (grid_lats <= lat_hi)
    grid_lats, grid_lons = grid_lats[keep], grid_lons[keep]

    grid_vecs = unit_vectors(grid_lats, grid_lons)
    centre_vecs = unit_vectors(centre_lats, centre_lons)
    cos_threshold = np.cos(radius_m / EARTH_RADIUS)

    # Points beyond the band's outer chord come back at infinity
    # (estimate -inf): certainly outside.
    reach = np.sqrt(2.0 * (1.0 - cos_threshold + 2.0 * _DOT_BAND))
    chord, _ = cKDTree(centre_vecs).query(grid_vecs, distance_upper_bound=reach)
    nearest_dot = 1.0 - 0.5 * chord * chord
    selected = nearest_dot >= cos_threshold + _DOT_BAND
    band = np.flatnonzero(np.abs(nearest_dot - cos_threshold) < _DOT_BAND)
    if band.size:
        dots = grid_vecs[band] @ centre_vecs.T
        selected[band] = (dots >= cos_threshold).any(axis=1)
    return grid_lats[selected], grid_lons[selected]


def land_grid_points_near(
    centre_lats,
    centre_lons,
    radius_m: float,
    spacing_deg: float,
):
    """Like :func:`grid_points_near`, restricted to land points."""
    lats, lons = grid_points_near(centre_lats, centre_lons, radius_m, spacing_deg)
    on_land = is_land(lats, lons)
    return lats[on_land], lons[on_land]
