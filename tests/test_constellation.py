"""Unit tests for Walker shells and constellations."""

import numpy as np
import pytest

from repro.constants import EARTH_RADIUS
from repro.orbits.constellation import Constellation, Shell, walker_delta_elements
from repro.orbits.coordinates import ecef_to_geodetic


class TestWalkerDeltaElements:
    def test_element_counts(self):
        alt, inc, raan, phase = walker_delta_elements(6, 8, 550e3, 53.0)
        assert len(alt) == len(inc) == len(raan) == len(phase) == 48

    def test_raan_uniform_spread(self):
        _, _, raan, _ = walker_delta_elements(8, 4, 550e3, 53.0)
        unique_raans = sorted(set(raan.tolist()))
        assert unique_raans == [i * 45.0 for i in range(8)]

    def test_intra_plane_phase_spacing(self):
        _, _, _, phase = walker_delta_elements(1, 10, 550e3, 53.0)
        spacing = np.diff(sorted(phase.tolist()))
        np.testing.assert_allclose(spacing, 36.0)

    def test_walker_phase_offset_between_planes(self):
        _, _, _, phase = walker_delta_elements(4, 4, 550e3, 53.0, phase_offset_fraction=0.5)
        plane0_first = phase[0]
        plane1_first = phase[4]
        # Offset is half the intra-plane spacing (90 deg / 2 = 45 deg).
        assert (plane1_first - plane0_first) % 360.0 == pytest.approx(45.0)

    def test_zero_phase_offset(self):
        _, _, _, phase = walker_delta_elements(3, 4, 550e3, 53.0, phase_offset_fraction=0.0)
        assert phase[0] == phase[4] == phase[8]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            walker_delta_elements(0, 4, 550e3, 53.0)


class TestShell(object):
    def test_num_satellites(self, tiny_shell):
        assert tiny_shell.num_satellites == 48

    def test_positions_shape(self, tiny_shell):
        assert tiny_shell.positions_eci(0.0).shape == (48, 3)

    def test_all_at_orbit_radius(self, tiny_shell):
        radii = np.linalg.norm(tiny_shell.positions_ecef(1000.0), axis=1)
        np.testing.assert_allclose(radii, EARTH_RADIUS + 550e3, rtol=1e-12)

    def test_subsatellite_latitudes_bounded_by_inclination(self, tiny_shell):
        for t in (0.0, 900.0, 2700.0):
            lats, _, _ = ecef_to_geodetic(tiny_shell.positions_ecef(t))
            assert np.max(np.abs(lats)) <= tiny_shell.inclination_deg + 0.01

    def test_satellites_distinct(self, tiny_shell):
        positions = tiny_shell.positions_eci(0.0)
        distances = np.linalg.norm(positions[:, None] - positions[None, :], axis=-1)
        np.fill_diagonal(distances, np.inf)
        assert distances.min() > 100e3  # No two satellites co-located.

    def test_coverage_radius_property(self, tiny_shell):
        assert tiny_shell.coverage_radius_m == pytest.approx(941e3, rel=0.01)


class TestConstellation:
    def test_requires_a_shell(self):
        with pytest.raises(ValueError):
            Constellation(name="empty", shells=())

    def test_flat_index_space(self, tiny_shell):
        polar = Shell("p", 3, 5, 560e3, 90.0, 25.0)
        constellation = Constellation(name="two", shells=(tiny_shell, polar))
        assert constellation.num_satellites == 48 + 15
        assert constellation.shell_offsets() == [0, 48]
        assert constellation.shell_of(0) == (0, 0)
        assert constellation.shell_of(47) == (0, 47)
        assert constellation.shell_of(48) == (1, 0)
        assert constellation.shell_of(62) == (1, 14)

    def test_shell_of_out_of_range(self, tiny_constellation):
        with pytest.raises(IndexError):
            tiny_constellation.shell_of(48)
        with pytest.raises(IndexError):
            tiny_constellation.shell_of(-1)

    def test_positions_stack_shells(self, tiny_shell):
        polar = Shell("p", 3, 5, 560e3, 90.0, 25.0)
        constellation = Constellation(name="two", shells=(tiny_shell, polar))
        positions = constellation.positions_ecef(100.0)
        assert positions.shape == (63, 3)
        np.testing.assert_allclose(
            positions[:48], tiny_shell.positions_ecef(100.0)
        )
