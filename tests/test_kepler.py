"""Unit tests for circular-orbit propagation."""

import numpy as np
import pytest

from repro.constants import EARTH_RADIUS, orbital_period
from repro.orbits.kepler import mean_motion_rad_s, propagate_circular

ALTITUDE_M = 550e3
PERIOD_S = orbital_period(ALTITUDE_M)
RADIUS_M = EARTH_RADIUS + ALTITUDE_M


def position_eci(elements, time_s):
    """ECI position of one orbit at ``time_s`` via the array API, ``(3,)``.

    ``elements`` is ``(altitude_m, inclination_deg, raan_deg, phase_deg)``.
    """
    return propagate_circular(*(np.array([e]) for e in elements), time_s)[0]


@pytest.fixture()
def orbit():
    return (ALTITUDE_M, 53.0, 30.0, 10.0)


class TestCircularOrbit:
    def test_radius_constant_over_time(self, orbit):
        for t in (0.0, 100.0, 3333.3, 86400.0):
            position = position_eci(orbit, t)
            assert np.linalg.norm(position) == pytest.approx(RADIUS_M, rel=1e-12)

    def test_period_closes_the_orbit(self, orbit):
        start = position_eci(orbit, 0.0)
        after_period = position_eci(orbit, PERIOD_S)
        np.testing.assert_allclose(start, after_period, atol=1.0)  # metres

    def test_half_period_is_opposite(self, orbit):
        start = position_eci(orbit, 0.0)
        half = position_eci(orbit, PERIOD_S / 2.0)
        np.testing.assert_allclose(start, -half, atol=1.0)

    def test_orbital_velocity_near_7_6_kms(self, orbit):
        # LEO at 550 km: ~7.59 km/s.
        step = position_eci(orbit, 1.0) - position_eci(orbit, 0.0)
        assert np.linalg.norm(step) == pytest.approx(7590.0, rel=0.01)

    def test_inclination_bounds_z(self, orbit):
        # |z| <= r * sin(inclination) throughout the orbit.
        times = np.linspace(0.0, PERIOD_S, 200)
        z_max = max(abs(position_eci(orbit, t)[2]) for t in times)
        bound = RADIUS_M * np.sin(np.radians(orbit[1]))
        assert z_max <= bound * (1.0 + 1e-9)
        assert z_max == pytest.approx(bound, rel=1e-3)

    def test_equatorial_orbit_stays_in_plane(self):
        orbit = (ALTITUDE_M, 0.0, 0.0, 0.0)
        for t in np.linspace(0, PERIOD_S, 17):
            assert abs(position_eci(orbit, t)[2]) < 1e-6

    def test_polar_orbit_passes_over_poles(self):
        orbit = (ALTITUDE_M, 90.0, 0.0, 0.0)
        quarter = PERIOD_S / 4.0
        position = position_eci(orbit, quarter)
        assert abs(position[2]) == pytest.approx(RADIUS_M, rel=1e-9)


class TestMeanMotion:
    def test_matches_period(self):
        altitude = 550e3
        n = mean_motion_rad_s(altitude)
        assert 2 * np.pi / n == pytest.approx(orbital_period(altitude), rel=1e-12)

    def test_decreases_with_altitude(self):
        assert mean_motion_rad_s(550e3) > mean_motion_rad_s(1200e3)


class TestPropagateCircular:
    def test_vectorized_matches_scalar(self):
        altitudes = np.array([550e3, 630e3, 1200e3])
        inclinations = np.array([53.0, 51.9, 90.0])
        raans = np.array([0.0, 120.0, 240.0])
        phases = np.array([0.0, 45.0, 90.0])
        t = 1234.5
        batch = propagate_circular(altitudes, inclinations, raans, phases, t)
        for i in range(3):
            single = propagate_circular(
                altitudes[i : i + 1], inclinations[i : i + 1],
                raans[i : i + 1], phases[i : i + 1], t,
            )[0]
            np.testing.assert_allclose(batch[i], single, atol=1e-6)

    def test_output_shape(self):
        n = 10
        result = propagate_circular(
            np.full(n, 550e3), np.full(n, 53.0), np.zeros(n), np.arange(n, dtype=float), 0.0
        )
        assert result.shape == (n, 3)

    def test_phase_zero_starts_at_ascending_node(self):
        position = propagate_circular(
            np.array([550e3]), np.array([53.0]), np.array([0.0]), np.array([0.0]), 0.0
        )[0]
        # At the ascending node with RAAN 0 the satellite sits on the +X axis.
        np.testing.assert_allclose(
            position, [EARTH_RADIUS + 550e3, 0.0, 0.0], atol=1e-6
        )

    def test_raan_rotates_about_z(self):
        base = propagate_circular(
            np.array([550e3]), np.array([53.0]), np.array([0.0]), np.array([33.0]), 500.0
        )[0]
        rotated = propagate_circular(
            np.array([550e3]), np.array([53.0]), np.array([90.0]), np.array([33.0]), 500.0
        )[0]
        # 90-degree RAAN rotation: (x, y, z) -> (-y, x, z).
        np.testing.assert_allclose(rotated, [-base[1], base[0], base[2]], atol=1e-6)


class TestJ2:
    def test_starlink_precession_rate_known_value(self):
        from repro.orbits.kepler import nodal_precession_rate_rad_s

        rate_deg_day = float(
            np.degrees(nodal_precession_rate_rad_s(550e3, 53.0)) * 86400.0
        )
        # Published Starlink-shell figure: about -4.5 to -5 deg/day westward.
        assert -5.2 < rate_deg_day < -4.2

    def test_polar_orbit_does_not_precess(self):
        from repro.orbits.kepler import nodal_precession_rate_rad_s

        assert abs(float(nodal_precession_rate_rad_s(560e3, 90.0))) < 1e-12

    def test_sun_synchronous_rate(self):
        from repro.orbits.kepler import nodal_precession_rate_rad_s

        # ~567 km / 97.7 deg is approximately sun-synchronous:
        # +0.9856 deg/day eastward.
        rate_deg_day = float(
            np.degrees(nodal_precession_rate_rad_s(567e3, 97.7)) * 86400.0
        )
        assert 0.9 < rate_deg_day < 1.1

    def test_retrograde_precesses_eastward(self):
        from repro.orbits.kepler import nodal_precession_rate_rad_s

        assert float(nodal_precession_rate_rad_s(550e3, 120.0)) > 0

    def test_j2_preserves_orbit_radius(self):
        positions = propagate_circular(
            np.array([550e3]), np.array([53.0]), np.array([0.0]),
            np.array([0.0]), 86400.0, j2=True,
        )
        assert np.linalg.norm(positions[0]) == pytest.approx(
            6_371_000.0 + 550e3, rel=1e-12
        )

    def test_j2_shifts_position_over_a_day(self):
        args = (
            np.array([550e3]), np.array([53.0]), np.array([0.0]), np.array([0.0])
        )
        plain = propagate_circular(*args, 86400.0)
        perturbed = propagate_circular(*args, 86400.0, j2=True)
        shift_km = np.linalg.norm(plain - perturbed) / 1000.0
        assert 100.0 < shift_km < 2000.0

    def test_shell_geometry_envelope_invariant_under_j2(self, tiny_shell):
        """J2 = rigid RAAN rotation + a tiny common phase advance.

        Intra-plane ISL lengths are exactly invariant; cross-plane
        lengths oscillate with the argument of latitude under *any*
        propagation, so under J2 they must stay within the envelope the
        unperturbed shell already sweeps over one orbital period.
        """
        from dataclasses import replace as dc_replace

        from repro.network.topology import isl_lengths_m, plus_grid_edges

        j2_shell = dc_replace(tiny_shell, j2=True)
        edges = plus_grid_edges(tiny_shell)
        per_plane = tiny_shell.sats_per_plane
        intra = edges[edges[:, 0] // per_plane == edges[:, 1] // per_plane]
        cross = edges[edges[:, 0] // per_plane != edges[:, 1] // per_plane]

        t = 43200.0
        np.testing.assert_allclose(
            isl_lengths_m(intra, tiny_shell.positions_eci(t)),
            isl_lengths_m(intra, j2_shell.positions_eci(t)),
            rtol=1e-9,
        )
        envelope_lo, envelope_hi = np.inf, -np.inf
        for sample in np.linspace(0.0, orbital_period(tiny_shell.altitude_m), 33):
            lengths = isl_lengths_m(cross, tiny_shell.positions_eci(float(sample)))
            envelope_lo = min(envelope_lo, lengths.min())
            envelope_hi = max(envelope_hi, lengths.max())
        perturbed = isl_lengths_m(cross, j2_shell.positions_eci(t))
        assert perturbed.min() >= envelope_lo * (1 - 1e-6)
        assert perturbed.max() <= envelope_hi * (1 + 1e-6)

    def test_j2_at_epoch_is_identity(self, tiny_shell):
        from dataclasses import replace as dc_replace

        j2_shell = dc_replace(tiny_shell, j2=True)
        np.testing.assert_allclose(
            tiny_shell.positions_eci(0.0), j2_shell.positions_eci(0.0)
        )
