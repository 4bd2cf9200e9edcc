"""Geodesy substrate: spherical math, land mask, grids."""

from repro.geo.geodesy import (
    central_angle_rad,
    destination_point,
    great_circle_points,
    haversine_m,
    midpoint,
    normalize_lon_deg,
)
from repro.geo.grid import global_grid, grid_points_near, land_grid_points_near
from repro.geo.landmask import is_land

__all__ = [
    "haversine_m",
    "central_angle_rad",
    "destination_point",
    "great_circle_points",
    "midpoint",
    "normalize_lon_deg",
    "global_grid",
    "grid_points_near",
    "land_grid_points_near",
    "is_land",
]
