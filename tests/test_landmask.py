"""Unit tests for the built-in land/water mask."""

import numpy as np
import pytest

from repro.geo import landmask


LAND_POINTS = {
    "London": (51.5, -0.12),
    "Tokyo": (35.68, 139.69),
    "Delhi": (28.6, 77.2),
    "Sydney": (-33.87, 151.2),
    "Maceio": (-9.66, -35.73),
    "Durban": (-29.85, 31.02),
    "Denver": (39.74, -104.99),
    "Moscow interior": (55.0, 50.0),
    "Sahara": (23.0, 10.0),
    "Amazon": (-5.0, -60.0),
    "Siberia": (60.0, 100.0),
    "Antarctica": (-80.0, 0.0),
    "Greenland": (72.0, -40.0),
    "Outback": (-25.0, 135.0),
}

WATER_POINTS = {
    "North Atlantic": (50.0, -30.0),
    "Mid Atlantic": (30.0, -40.0),
    "South Atlantic": (-30.0, -20.0),
    "North Pacific": (40.0, -160.0),
    "Equatorial Pacific": (0.0, -150.0),
    "Indian Ocean": (-20.0, 80.0),
    "Tasman Sea": (-38.0, 160.0),
    "Arabian Sea": (15.0, 65.0),
    "Bay of Bengal": (12.0, 88.0),
    "Southern Ocean": (-55.0, 100.0),
    "Gulf of Guinea": (0.0, 0.0),
    "Coral Sea": (-15.0, 155.0),
}


class TestKnownPoints:
    @pytest.mark.parametrize("name,point", LAND_POINTS.items())
    def test_land_points(self, name, point):
        assert bool(landmask.is_land(*point)), f"{name} should be land"

    @pytest.mark.parametrize("name,point", WATER_POINTS.items())
    def test_water_points(self, name, point):
        assert not bool(landmask.is_land(*point)), f"{name} should be water"


class TestIsLandApi:
    def test_scalar_returns_zero_dim(self):
        result = landmask.is_land(51.5, -0.12)
        assert np.asarray(result).ndim == 0

    def test_array_shape_preserved(self):
        lats = np.zeros((2, 3))
        lons = np.zeros((2, 3))
        assert landmask.is_land(lats, lons).shape == (2, 3)

    def test_broadcasting(self):
        lats = np.array([0.0, 50.0])
        result = landmask.is_land(lats[:, None], np.array([[-30.0, 100.0]]))
        assert result.shape == (2, 2)

    def test_longitude_wrapping(self):
        # 181 E == -179 (western Pacific, water).
        direct = bool(landmask.is_land(0.0, -179.0))
        wrapped = bool(landmask.is_land(0.0, 181.0))
        assert direct == wrapped

    def test_dtype_is_bool(self):
        assert landmask.is_land(np.array([0.0]), np.array([0.0])).dtype == bool


class TestLandFraction:
    def test_land_fraction_is_earthlike(self):
        # Earth is ~29 % land; our generous coastal dilation pushes a bit
        # above that but must stay well below half. Cells are weighted
        # by the cosine of their centre latitude (their area).
        raster = landmask._raster()
        n_lat = raster.shape[0]
        lat_centres = -90.0 + (np.arange(n_lat) + 0.5) * (180.0 / n_lat)
        weights = np.broadcast_to(np.cos(np.radians(lat_centres))[:, None], raster.shape)
        fraction = float(np.average(raster, weights=weights))
        assert 0.25 < fraction < 0.45


class TestRasterize:
    def test_coarse_raster_has_both_classes(self):
        raster = landmask.rasterize(resolution_deg=5.0, dilation_cells=0)
        assert raster.any()
        assert not raster.all()

    def test_dilation_only_adds_land(self):
        base = landmask.rasterize(resolution_deg=5.0, dilation_cells=0)
        dilated = landmask.rasterize(resolution_deg=5.0, dilation_cells=1)
        assert np.all(dilated[base])
        assert dilated.sum() > base.sum()

    def test_shape_matches_resolution(self):
        raster = landmask.rasterize(resolution_deg=5.0, dilation_cells=0)
        assert raster.shape == (36, 72)


class TestPolygonTable:
    def test_all_polygons_closed(self):
        for name, polygon in landmask.LAND_POLYGONS.items():
            assert polygon[0] == polygon[-1], f"{name} polygon is not closed"

    def test_all_vertices_in_range(self):
        for name, polygon in landmask.LAND_POLYGONS.items():
            for lat, lon in polygon:
                assert -90 <= lat <= 90, name
                # Longitudes may exceed 180 for antimeridian crossing.
                assert -180 <= lon <= 360, name
