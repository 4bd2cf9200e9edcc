"""Unit tests for visibility geometry and GSO arc avoidance."""

import numpy as np
import pytest

from repro.constants import EARTH_RADIUS, GSO_ALTITUDE_M, coverage_radius_m
from repro.orbits import visibility
from repro.orbits.coordinates import geodetic_to_ecef


class TestElevation:
    def test_satellite_at_zenith(self):
        gt = geodetic_to_ecef(10.0, 20.0, 0.0)
        sat = geodetic_to_ecef(10.0, 20.0, 550e3)
        assert float(visibility.elevation_deg(gt, sat)) == pytest.approx(90.0)

    def test_satellite_on_horizon_plane(self):
        gt = geodetic_to_ecef(0.0, 0.0, 0.0)
        # A target due east at the same radius sits below the horizon...
        sat = geodetic_to_ecef(0.0, 30.0, 0.0)
        assert float(visibility.elevation_deg(gt, sat)) < 0.0

    def test_elevation_at_coverage_edge_equals_min_elevation(self):
        altitude, min_elev = 550e3, 25.0
        radius = coverage_radius_m(altitude, min_elev)
        psi_deg = np.degrees(radius / EARTH_RADIUS)
        gt = geodetic_to_ecef(0.0, 0.0, 0.0)
        sat = geodetic_to_ecef(0.0, psi_deg, altitude)
        assert float(visibility.elevation_deg(gt, sat)) == pytest.approx(
            min_elev, abs=1e-6
        )

    def test_vectorized_shapes(self):
        gt = geodetic_to_ecef(np.zeros(4), np.zeros(4), 0.0)
        sat = geodetic_to_ecef(np.zeros(4), np.arange(4.0), 550e3)
        result = visibility.elevation_deg(gt, sat)
        assert result.shape == (4,)
        assert np.all(np.diff(result) < 0)  # further away -> lower elevation

    def test_is_visible_threshold(self):
        gt = geodetic_to_ecef(0.0, 0.0, 0.0)
        overhead = geodetic_to_ecef(0.0, 1.0, 550e3)
        far = geodetic_to_ecef(0.0, 30.0, 550e3)
        assert float(visibility.elevation_deg(gt, overhead)) >= 25.0
        assert float(visibility.elevation_deg(gt, far)) < 25.0


class TestCoverageAngle:
    def test_matches_constants_module(self):
        psi = visibility.coverage_central_angle_rad(550e3, 25.0)
        assert psi * EARTH_RADIUS == pytest.approx(coverage_radius_m(550e3, 25.0))

    def test_zero_at_zenith_requirement(self):
        assert visibility.coverage_central_angle_rad(550e3, 90.0) == pytest.approx(
            0.0, abs=1e-9
        )


class TestEnu:
    def test_basis_orthonormal(self):
        basis = visibility.enu_basis(47.0, 11.0)
        np.testing.assert_allclose(basis @ basis.T, np.eye(3), atol=1e-12)

    def test_up_points_away_from_centre(self):
        basis = visibility.enu_basis(30.0, -60.0)
        position = geodetic_to_ecef(30.0, -60.0, 0.0)
        np.testing.assert_allclose(basis[2], position / np.linalg.norm(position), atol=1e-12)

    def test_direction_to_zenith_target(self):
        direction = visibility.direction_to_enu(
            10.0, 20.0, geodetic_to_ecef(10.0, 20.0, 550e3)
        )
        np.testing.assert_allclose(direction, [0.0, 0.0, 1.0], atol=1e-9)

    def test_direction_to_northern_target_points_north(self):
        direction = visibility.direction_to_enu(
            0.0, 0.0, geodetic_to_ecef(5.0, 0.0, 550e3)
        )
        assert direction[1] > 0.0  # North component.
        assert abs(direction[0]) < 1e-9  # No East component.


class TestGsoArc:
    def test_equator_sees_gso_at_zenith(self):
        directions = visibility.gso_arc_directions_enu(0.0)
        # Some direction in the arc is essentially straight up.
        assert np.max(directions[:, 2]) == pytest.approx(1.0, abs=1e-6)

    def test_high_latitude_sees_arc_low(self):
        directions = visibility.gso_arc_directions_enu(60.0)
        max_elev = np.degrees(np.arcsin(np.max(directions[:, 2])))
        assert max_elev < 25.0

    def test_beyond_81_degrees_no_arc_visible(self):
        directions = visibility.gso_arc_directions_enu(86.0)
        assert len(directions) == 0

    def test_min_separation_zero_toward_arc(self):
        # At the Equator looking straight up, separation is ~0.
        separation = visibility.min_gso_separation_deg(0.0, np.array([90.0]), np.array([0.0]))
        assert float(separation[0]) == pytest.approx(0.0, abs=0.5)

    def test_separation_increases_away_from_arc(self):
        # Looking due North at 45 deg elevation from the Equator is far
        # from the (east-west overhead) arc.
        separation = visibility.min_gso_separation_deg(0.0, np.array([45.0]), np.array([0.0]))
        assert float(separation[0]) > 30.0

    def test_polar_gt_unconstrained(self):
        separation = visibility.min_gso_separation_deg(
            88.0, np.array([45.0]), np.array([0.0])
        )
        assert float(separation[0]) == 180.0


class TestReachableSkyFraction:
    def test_equator_heavily_restricted(self):
        equator = visibility.reachable_sky_fraction(0.0, 40.0, 22.0)
        high_lat = visibility.reachable_sky_fraction(50.0, 40.0, 22.0)
        assert equator < 0.6
        assert high_lat > 0.8
        assert high_lat > equator

    def test_no_separation_means_full_sky(self):
        assert visibility.reachable_sky_fraction(0.0, 40.0, 0.0) == pytest.approx(
            1.0, abs=0.01
        )

    def test_fraction_bounds(self):
        for lat in (0.0, 20.0, 45.0):
            fraction = visibility.reachable_sky_fraction(lat, 40.0, 22.0)
            assert 0.0 <= fraction <= 1.0

    def test_monotone_in_separation(self):
        loose = visibility.reachable_sky_fraction(10.0, 40.0, 10.0)
        tight = visibility.reachable_sky_fraction(10.0, 40.0, 30.0)
        assert tight < loose


def _look_angles(gt_lat_deg, gt_lon_deg, target_ecef):
    """(elevation, azimuth clockwise from North, slant range) via the ENU frame."""
    east, north, up = np.moveaxis(
        visibility.direction_to_enu(gt_lat_deg, gt_lon_deg, target_ecef), -1, 0
    )
    gt = geodetic_to_ecef(gt_lat_deg, gt_lon_deg, 0.0)
    slant = np.linalg.norm(np.asarray(target_ecef) - gt, axis=-1)
    elevation = np.degrees(np.arcsin(np.clip(up, -1.0, 1.0)))
    return elevation, np.mod(np.degrees(np.arctan2(east, north)), 360.0), slant


class TestLookAngles:
    """Antenna look angles read off ``direction_to_enu``, the GSO mask's frame."""

    def test_zenith_target(self):
        elev, _, slant = _look_angles(10.0, 20.0, geodetic_to_ecef(10.0, 20.0, 550e3))
        assert float(elev) == pytest.approx(90.0, abs=1e-6)
        assert float(slant) == pytest.approx(550e3, rel=1e-9)

    def test_northern_target_azimuth_zero(self):
        _, azim, _ = _look_angles(0.0, 0.0, geodetic_to_ecef(5.0, 0.0, 550e3))
        assert float(azim) == pytest.approx(0.0, abs=1e-6)

    def test_eastern_target_azimuth_90(self):
        _, azim, _ = _look_angles(0.0, 0.0, geodetic_to_ecef(0.0, 5.0, 550e3))
        assert float(azim) == pytest.approx(90.0, abs=1e-6)

    def test_elevation_matches_elevation_deg(self):
        gt = geodetic_to_ecef(40.0, -70.0, 0.0)
        sat = geodetic_to_ecef(43.0, -66.0, 550e3)
        elev, _, _ = _look_angles(40.0, -70.0, sat)
        assert float(elev) == pytest.approx(
            float(visibility.elevation_deg(gt, sat)), abs=1e-9
        )

    def test_vectorized(self):
        sats = geodetic_to_ecef(
            np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, 2.0]), 550e3
        )
        elev, azim, slant = _look_angles(0.0, 0.0, sats)
        assert elev.shape == azim.shape == slant.shape == (3,)

    def test_slant_range_consistent_with_constants(self):
        from repro.constants import slant_range_m

        # Target at the coverage edge: slant range matches the formula.
        elev_target = 25.0
        psi = visibility.coverage_central_angle_rad(550e3, elev_target)
        sat = geodetic_to_ecef(0.0, np.degrees(psi), 550e3)
        elev, _, slant = _look_angles(0.0, 0.0, sat)
        assert float(elev) == pytest.approx(elev_target, abs=1e-6)
        assert float(slant) == pytest.approx(slant_range_m(550e3, elev_target), rel=1e-9)
