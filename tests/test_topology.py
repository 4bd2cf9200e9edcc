"""Unit tests for the +Grid ISL topology."""

import numpy as np
import pytest

from repro.constants import EARTH_RADIUS
from repro.network.graph import isl_grazing_altitude_m
from repro.network.topology import (
    constellation_isl_edges,
    isl_lengths_m,
    plus_grid_edges,
)
from repro.orbits.constellation import Constellation, Shell
from repro.orbits.presets import polar_shell, starlink_shell


def degree_counts(edges, num_sats):
    degrees = np.zeros(num_sats, dtype=int)
    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1
    return degrees


class TestPlusGrid:
    def test_every_satellite_has_degree_4(self, tiny_shell):
        edges = plus_grid_edges(tiny_shell)
        degrees = degree_counts(edges, tiny_shell.num_satellites)
        assert np.all(degrees == 4)

    def test_edge_count(self, tiny_shell):
        # P*S intra-plane + P*S cross-plane for non-degenerate rings.
        edges = plus_grid_edges(tiny_shell)
        assert len(edges) == 2 * tiny_shell.num_satellites

    def test_no_duplicate_edges(self, tiny_shell):
        edges = plus_grid_edges(tiny_shell)
        canonical = {(min(u, v), max(u, v)) for u, v in edges}
        assert len(canonical) == len(edges)

    def test_no_self_loops(self, tiny_shell):
        edges = plus_grid_edges(tiny_shell)
        assert np.all(edges[:, 0] != edges[:, 1])

    def test_starlink_shell_edge_count(self):
        shell = starlink_shell()
        edges = plus_grid_edges(shell)
        assert len(edges) == 2 * 1584
        assert np.all(degree_counts(edges, 1584) == 4)

    def test_intra_plane_neighbours_adjacent_slots(self, tiny_shell):
        edges = plus_grid_edges(tiny_shell)
        per_plane = tiny_shell.sats_per_plane
        for u, v in edges:
            plane_u, slot_u = divmod(u, per_plane)
            plane_v, slot_v = divmod(v, per_plane)
            if plane_u == plane_v:
                assert (slot_u - slot_v) % per_plane in (1, per_plane - 1)
            else:
                # Cross-plane: adjacent planes (with wrap), phase-nearest
                # slot (the Walker stagger allows a slot shift, which at
                # the seam plane compensates the accumulated offset).
                assert (plane_u - plane_v) % tiny_shell.num_planes in (
                    1,
                    tiny_shell.num_planes - 1,
                )

    def test_degenerate_two_sat_ring(self):
        shell = Shell("d", 1, 2, 550e3, 53.0, 25.0)
        edges = plus_grid_edges(shell)
        assert len(edges) == 1  # No duplicate wraparound edge.

    def test_single_satellite_shell(self):
        shell = Shell("s", 1, 1, 550e3, 53.0, 25.0)
        assert len(plus_grid_edges(shell)) == 0


class TestConstellationEdges:
    def test_no_cross_shell_isls(self, tiny_shell):
        polar = Shell("p", 4, 6, 560e3, 90.0, 25.0)
        constellation = Constellation(name="two", shells=(tiny_shell, polar))
        edges = constellation_isl_edges(constellation)
        boundary = tiny_shell.num_satellites
        same_side = ((edges[:, 0] < boundary) & (edges[:, 1] < boundary)) | (
            (edges[:, 0] >= boundary) & (edges[:, 1] >= boundary)
        )
        assert np.all(same_side)

    def test_edge_count_sums_shells(self, tiny_shell):
        polar = Shell("p", 4, 6, 560e3, 90.0, 25.0)
        constellation = Constellation(name="two", shells=(tiny_shell, polar))
        edges = constellation_isl_edges(constellation)
        assert len(edges) == 2 * 48 + 2 * 24


class TestIslLengths:
    def test_lengths_positive_and_below_diameter(self, tiny_shell):
        edges = plus_grid_edges(tiny_shell)
        positions = tiny_shell.positions_eci(0.0)
        lengths = isl_lengths_m(edges, positions)
        assert np.all(lengths > 0)
        assert np.all(lengths < 2 * (EARTH_RADIUS + tiny_shell.altitude_m))

    def test_starlink_isl_lengths_stay_clear_of_atmosphere(self):
        """Paper Section 2: ISLs must not dip below ~80 km altitude."""
        shell = starlink_shell()
        edges = plus_grid_edges(shell)
        for t in (0.0, 1800.0):
            positions = shell.positions_eci(t)
            worst = isl_grazing_altitude_m(
                positions[edges[:, 0]], positions[edges[:, 1]]
            ).min()
            assert worst > 80_000.0

    def test_walker_star_shell_has_no_seam_isl(self):
        """The polar shell spreads its planes over 180 deg of RAAN, so its
        last plane and plane 0 run opposite ways: no ISL crosses that seam."""
        shell = polar_shell()
        edges = plus_grid_edges(shell)
        planes = np.sort(edges // shell.sats_per_plane, axis=1)
        assert not ((planes[:, 0] == 0) & (planes[:, 1] == shell.num_planes - 1)).any()
        assert len(edges) == 2 * shell.num_satellites - shell.sats_per_plane
        positions = shell.positions_eci(0.0)
        worst = isl_grazing_altitude_m(
            positions[edges[:, 0]], positions[edges[:, 1]]
        ).min()
        assert worst > 80_000.0

    def test_intra_plane_lengths_constant_over_time(self, tiny_shell):
        edges = plus_grid_edges(tiny_shell)
        per_plane = tiny_shell.sats_per_plane
        intra = edges[edges[:, 0] // per_plane == edges[:, 1] // per_plane]
        l0 = isl_lengths_m(intra, tiny_shell.positions_eci(0.0))
        l1 = isl_lengths_m(intra, tiny_shell.positions_eci(1234.0))
        np.testing.assert_allclose(l0, l1, rtol=1e-9)

    @staticmethod
    def _pair_apart(radius_m, chord_m):
        """Two points at ``radius_m`` from the centre, ``chord_m`` apart."""
        half = np.arcsin(chord_m / (2.0 * radius_m))
        return (
            radius_m * np.array([np.cos(half), -np.sin(half), 0.0]),
            radius_m * np.array([np.cos(half), np.sin(half), 0.0]),
        )

    def test_grazing_altitude_of_zero_length_isl(self):
        a, b = self._pair_apart(EARTH_RADIUS + 550e3, 0.0)
        assert isl_grazing_altitude_m(a, b) == pytest.approx(550e3)

    def test_grazing_altitude_decreases_with_length(self):
        orbit_radius = EARTH_RADIUS + 550e3
        short = isl_grazing_altitude_m(*self._pair_apart(orbit_radius, 1000e3))
        long = isl_grazing_altitude_m(*self._pair_apart(orbit_radius, 5000e3))
        assert long < short

    def test_hypatia_isl_limit_grazes_80_km(self):
        # Hypatia's MAX_ISL_DISTANCE (5,016,591 m at 550 km) is the chord
        # whose midpoint is 80 km above its Earth of radius 6,378,135 m.
        hypatia_radius = 6_378_135.0
        a, b = self._pair_apart(hypatia_radius + 550e3, 5_016_591.0)
        closest = isl_grazing_altitude_m(a, b) + EARTH_RADIUS
        assert closest == pytest.approx(hypatia_radius + 80e3, abs=1.0)

    def test_cross_shell_isl_uses_the_closest_point(self):
        # A radial link from 550 km up to 1,100 km never dips below 550 km;
        # the closest point is its lower endpoint, not the midpoint.
        low = np.array([EARTH_RADIUS + 550e3, 0.0, 0.0])
        high = np.array([EARTH_RADIUS + 1100e3, 0.0, 0.0])
        assert isl_grazing_altitude_m(low, high) == pytest.approx(550e3)
        np.testing.assert_allclose(
            isl_grazing_altitude_m(np.stack([low, high]), np.stack([high, low])),
            [550e3, 550e3],
        )
