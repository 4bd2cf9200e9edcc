"""Unit tests for coordinate frame conversions."""

import numpy as np
import pytest

from repro.constants import EARTH_RADIUS, SIDEREAL_DAY
from repro.orbits import coordinates
from tests.reference_geometry import ecef_to_eci


class TestEarthRotation:
    def test_zero_at_epoch(self):
        assert coordinates.earth_rotation_angle_rad(0.0) == 0.0

    def test_full_turn_after_sidereal_day(self):
        angle = coordinates.earth_rotation_angle_rad(SIDEREAL_DAY)
        assert angle == pytest.approx(0.0, abs=1e-9)

    def test_quarter_turn(self):
        angle = coordinates.earth_rotation_angle_rad(SIDEREAL_DAY / 4.0)
        assert angle == pytest.approx(np.pi / 2.0, rel=1e-12)


class TestEciEcef:
    def test_frames_coincide_at_epoch(self, rng):
        points = rng.normal(size=(20, 3)) * 7e6
        np.testing.assert_allclose(coordinates.eci_to_ecef(points, 0.0), points)

    def test_roundtrip(self, rng):
        points = rng.normal(size=(20, 3)) * 7e6
        t = 12345.6
        back = ecef_to_eci(coordinates.eci_to_ecef(points, t), t)
        np.testing.assert_allclose(back, points, atol=1e-6)

    def test_rotation_preserves_norm(self, rng):
        points = rng.normal(size=(20, 3)) * 7e6
        rotated = coordinates.eci_to_ecef(points, 5000.0)
        np.testing.assert_allclose(
            np.linalg.norm(rotated, axis=1), np.linalg.norm(points, axis=1), rtol=1e-12
        )

    def test_z_axis_invariant(self):
        pole = np.array([[0.0, 0.0, 7e6]])
        rotated = coordinates.eci_to_ecef(pole, 43210.0)
        np.testing.assert_allclose(rotated, pole, atol=1e-6)

    def test_fixed_eci_point_appears_to_move_west(self):
        # A point fixed in inertial space drifts westward in ECEF.
        point = np.array([[7e6, 0.0, 0.0]])
        later = coordinates.eci_to_ecef(point, 600.0)[0]
        _, lon, _ = coordinates.ecef_to_geodetic(later)
        assert lon < 0.0


class TestGeodetic:
    def test_equator_prime_meridian(self):
        ecef = coordinates.geodetic_to_ecef(0.0, 0.0, 0.0)
        np.testing.assert_allclose(ecef, [EARTH_RADIUS, 0.0, 0.0], atol=1e-6)

    def test_north_pole(self):
        ecef = coordinates.geodetic_to_ecef(90.0, 0.0, 0.0)
        np.testing.assert_allclose(ecef, [0.0, 0.0, EARTH_RADIUS], atol=1e-6)

    def test_altitude_extends_radius(self):
        ecef = coordinates.geodetic_to_ecef(45.0, 45.0, 1000.0)
        assert np.linalg.norm(ecef) == pytest.approx(EARTH_RADIUS + 1000.0, rel=1e-12)

    def test_roundtrip(self, rng):
        lats = rng.uniform(-89.9, 89.9, 100)
        lons = rng.uniform(-180.0, 180.0, 100)
        alts = rng.uniform(0.0, 2e6, 100)
        ecef = coordinates.geodetic_to_ecef(lats, lons, alts)
        back_lat, back_lon, back_alt = coordinates.ecef_to_geodetic(ecef)
        np.testing.assert_allclose(back_lat, lats, atol=1e-9)
        np.testing.assert_allclose(back_lon, lons, atol=1e-9)
        np.testing.assert_allclose(back_alt, alts, atol=1e-6)

    def test_vectorized_shapes(self):
        lats = np.zeros((4, 5))
        ecef = coordinates.geodetic_to_ecef(lats, lats, 0.0)
        assert ecef.shape == (4, 5, 3)
        lat, lon, alt = coordinates.ecef_to_geodetic(ecef)
        assert lat.shape == (4, 5)

    def test_origin_does_not_crash(self):
        lat, lon, alt = coordinates.ecef_to_geodetic(np.zeros(3))
        assert alt == pytest.approx(-EARTH_RADIUS)


class TestRotationZ:
    def test_orthonormal(self):
        rot = coordinates.rotation_z(0.7)
        np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-12)

    def test_determinant_one(self):
        assert np.linalg.det(coordinates.rotation_z(1.1)) == pytest.approx(1.0)

    def test_rotates_x_to_y(self):
        rot = coordinates.rotation_z(np.pi / 2.0)
        np.testing.assert_allclose(rot @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-12)
