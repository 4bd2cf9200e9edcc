"""Unit tests for spherical geodesy."""

import numpy as np
import pytest

from repro.constants import EARTH_RADIUS
from repro.geo import geodesy
from tests.reference_geometry import initial_bearing_deg


LONDON = (51.51, -0.13)
NYC = (40.71, -74.01)
SYDNEY = (-33.87, 151.21)


class TestHaversine:
    def test_zero_distance(self):
        assert geodesy.haversine_m(10.0, 20.0, 10.0, 20.0) == pytest.approx(0.0)

    def test_london_nyc_about_5570_km(self):
        distance = geodesy.haversine_m(*LONDON, *NYC)
        assert distance == pytest.approx(5_570e3, rel=0.01)

    def test_london_sydney_about_17000_km(self):
        distance = geodesy.haversine_m(*LONDON, *SYDNEY)
        assert distance == pytest.approx(16_990e3, rel=0.01)

    def test_quarter_circumference(self):
        distance = geodesy.haversine_m(0.0, 0.0, 0.0, 90.0)
        assert distance == pytest.approx(np.pi / 2 * EARTH_RADIUS, rel=1e-9)

    def test_antipodal_half_circumference(self):
        distance = geodesy.haversine_m(0.0, 0.0, 0.0, 180.0)
        assert distance == pytest.approx(np.pi * EARTH_RADIUS, rel=1e-9)

    def test_symmetry(self):
        assert geodesy.haversine_m(*LONDON, *NYC) == pytest.approx(
            geodesy.haversine_m(*NYC, *LONDON)
        )

    def test_broadcasting(self):
        lats = np.array([0.0, 10.0, 20.0])
        result = geodesy.haversine_m(lats, 0.0, 0.0, 0.0)
        assert result.shape == (3,)
        assert result[0] == pytest.approx(0.0)
        assert np.all(np.diff(result) > 0)

    def test_pole_to_pole(self):
        distance = geodesy.haversine_m(90.0, 0.0, -90.0, 0.0)
        assert distance == pytest.approx(np.pi * EARTH_RADIUS, rel=1e-9)


class TestBearing:
    """Checks the tests' reference bearing, not library code.

    The GSO-separation test in ``test_extensions`` scores edges with
    :func:`tests.reference_geometry.initial_bearing_deg`, so the
    reference itself is pinned here.
    """

    def test_due_east_on_equator(self):
        assert initial_bearing_deg(0.0, 0.0, 0.0, 10.0) == pytest.approx(90.0)

    def test_due_west_on_equator(self):
        assert initial_bearing_deg(0.0, 0.0, 0.0, -10.0) == pytest.approx(270.0)

    def test_due_north(self):
        assert initial_bearing_deg(0.0, 0.0, 10.0, 0.0) == pytest.approx(0.0)

    def test_due_south(self):
        assert initial_bearing_deg(10.0, 0.0, 0.0, 0.0) == pytest.approx(180.0)

    def test_range_is_0_to_360(self):
        rng = np.random.default_rng(1)
        lats = rng.uniform(-80, 80, 50)
        lons = rng.uniform(-180, 180, 50)
        bearings = initial_bearing_deg(lats[:-1], lons[:-1], lats[1:], lons[1:])
        assert np.all(bearings >= 0.0)
        assert np.all(bearings < 360.0)


class TestDestinationPoint:
    def test_zero_distance_is_identity(self):
        lat, lon = geodesy.destination_point(40.0, -74.0, 123.0, 0.0)
        assert float(lat) == pytest.approx(40.0)
        assert float(lon) == pytest.approx(-74.0)

    def test_eastward_on_equator(self):
        quarter = np.pi / 2 * EARTH_RADIUS
        lat, lon = geodesy.destination_point(0.0, 0.0, 90.0, quarter)
        assert float(lat) == pytest.approx(0.0, abs=1e-9)
        assert float(lon) == pytest.approx(90.0)

    def test_roundtrip_distance(self):
        lat, lon = geodesy.destination_point(48.86, 2.35, 37.0, 1_000e3)
        back = geodesy.haversine_m(48.86, 2.35, float(lat), float(lon))
        assert back == pytest.approx(1_000e3, rel=1e-9)

    def test_longitude_normalized(self):
        lat, lon = geodesy.destination_point(0.0, 179.0, 90.0, 500e3)
        assert -180.0 <= float(lon) < 180.0


class TestGreatCirclePoints:
    def test_endpoints_reproduced(self):
        lats, lons = geodesy.great_circle_points(*LONDON, *NYC, 11)
        assert lats[0] == pytest.approx(LONDON[0], abs=1e-9)
        assert lons[0] == pytest.approx(LONDON[1], abs=1e-9)
        assert lats[-1] == pytest.approx(NYC[0], abs=1e-9)
        assert lons[-1] == pytest.approx(NYC[1], abs=1e-9)

    def test_points_equally_spaced(self):
        lats, lons = geodesy.great_circle_points(*LONDON, *SYDNEY, 21)
        segment_lengths = geodesy.haversine_m(lats[:-1], lons[:-1], lats[1:], lons[1:])
        assert np.allclose(segment_lengths, segment_lengths[0], rtol=1e-6)

    def test_total_length_matches_haversine(self):
        lats, lons = geodesy.great_circle_points(*LONDON, *NYC, 50)
        total = np.sum(geodesy.haversine_m(lats[:-1], lons[:-1], lats[1:], lons[1:]))
        assert total == pytest.approx(geodesy.haversine_m(*LONDON, *NYC), rel=1e-6)

    def test_north_atlantic_route_goes_north(self):
        # Great circle London-NYC arcs far north of both endpoints' parallels.
        lats, _ = geodesy.great_circle_points(*LONDON, *NYC, 50)
        assert lats.max() > 52.0

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            geodesy.great_circle_points(0, 0, 1, 1, 1)

    def test_identical_endpoints(self):
        lats, lons = geodesy.great_circle_points(10.0, 20.0, 10.0, 20.0, 5)
        assert np.allclose(lats, 10.0)
        assert np.allclose(lons, 20.0)

    def test_antipodal_endpoints_still_connect(self):
        lats, lons = geodesy.great_circle_points(0.0, 0.0, 0.0, 180.0, 9)
        total = np.sum(geodesy.haversine_m(lats[:-1], lons[:-1], lats[1:], lons[1:]))
        assert total == pytest.approx(np.pi * EARTH_RADIUS, rel=0.01)


class TestUnitVectors:
    def test_roundtrip(self, rng):
        lats = rng.uniform(-89, 89, 100)
        lons = rng.uniform(-180, 180, 100)
        vecs = geodesy.unit_vectors(lats, lons)
        back_lat, back_lon = geodesy.lonlat_from_unit_vectors(vecs)
        np.testing.assert_allclose(back_lat, lats, atol=1e-9)
        np.testing.assert_allclose(back_lon, lons, atol=1e-9)

    def test_norms_are_one(self, rng):
        vecs = geodesy.unit_vectors(rng.uniform(-90, 90, 50), rng.uniform(-180, 180, 50))
        np.testing.assert_allclose(np.linalg.norm(vecs, axis=-1), 1.0, atol=1e-12)

    def test_poles(self):
        north = geodesy.unit_vectors(90.0, 0.0)
        np.testing.assert_allclose(north, [0.0, 0.0, 1.0], atol=1e-12)


class TestNormalizeLon:
    def test_wraps_positive(self):
        assert geodesy.normalize_lon_deg(190.0) == pytest.approx(-170.0)

    def test_wraps_negative(self):
        assert geodesy.normalize_lon_deg(-190.0) == pytest.approx(170.0)

    def test_identity_in_range(self):
        assert geodesy.normalize_lon_deg(45.0) == pytest.approx(45.0)

    def test_180_maps_to_minus_180(self):
        assert geodesy.normalize_lon_deg(180.0) == pytest.approx(-180.0)


class TestMidpoint:
    def test_equator_midpoint(self):
        lat, lon = geodesy.midpoint(0.0, 0.0, 0.0, 90.0)
        assert lat == pytest.approx(0.0, abs=1e-9)
        assert lon == pytest.approx(45.0)

    def test_midpoint_equidistant(self):
        lat, lon = geodesy.midpoint(*LONDON, *SYDNEY)
        d1 = geodesy.haversine_m(*LONDON, lat, lon)
        d2 = geodesy.haversine_m(lat, lon, *SYDNEY)
        assert d1 == pytest.approx(d2, rel=1e-6)
