"""Property-based tests on network substrate invariants (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.network.graph import isl_grazing_altitude_m
from repro.network.modcod import spectral_efficiency, weather_capacity_factor
from repro.network.topology import isl_lengths_m, plus_grid_edges
from repro.orbits.constellation import Shell


shell_strategy = st.builds(
    Shell,
    name=st.just("prop"),
    num_planes=st.integers(min_value=1, max_value=12),
    sats_per_plane=st.integers(min_value=1, max_value=12),
    altitude_m=st.floats(min_value=350e3, max_value=1500e3),
    inclination_deg=st.floats(min_value=20.0, max_value=98.0),
    min_elevation_deg=st.floats(min_value=10.0, max_value=45.0),
    phase_offset_fraction=st.floats(min_value=0.0, max_value=1.0),
)


class TestPlusGridProperties:
    @given(shell_strategy)
    @settings(max_examples=80, deadline=None)
    def test_no_self_loops_or_duplicates(self, shell):
        edges = plus_grid_edges(shell)
        assert np.all(edges[:, 0] != edges[:, 1]) if len(edges) else True
        canonical = {(min(u, v), max(u, v)) for u, v in edges}
        assert len(canonical) == len(edges)

    @given(shell_strategy)
    @settings(max_examples=80, deadline=None)
    def test_indices_in_range(self, shell):
        edges = plus_grid_edges(shell)
        if len(edges):
            assert edges.min() >= 0
            assert edges.max() < shell.num_satellites

    @given(shell_strategy)
    @settings(max_examples=50, deadline=None)
    def test_uniform_degree_on_proper_rings(self, shell):
        """With >= 3 planes and >= 3 slots the +Grid is 4-regular."""
        if shell.num_planes < 3 or shell.sats_per_plane < 3:
            return
        edges = plus_grid_edges(shell)
        degrees = np.zeros(shell.num_satellites, dtype=int)
        for u, v in edges:
            degrees[u] += 1
            degrees[v] += 1
        assert np.all(degrees == 4)

    @given(shell_strategy)
    @settings(max_examples=40, deadline=None)
    def test_isl_lengths_physical(self, shell):
        """Every +Grid ISL stays above the Earth's surface midpoint."""
        if shell.num_planes < 3 or shell.sats_per_plane < 3:
            return
        edges = plus_grid_edges(shell)
        positions = shell.positions_eci(0.0)
        lengths = isl_lengths_m(edges, positions)
        orbit_radius = 6_371_000.0 + shell.altitude_m
        worst = isl_grazing_altitude_m(
            positions[edges[:, 0]], positions[edges[:, 1]]
        ).min()
        assert worst > -6_371_000.0
        assert np.all(lengths > 0)
        # Chord length can never exceed the orbital diameter...
        assert lengths.max() <= 2.0 * orbit_radius
        # ...and for dense shells (where "+Grid" is meaningful) the
        # phase-nearest partner selection keeps links genuinely short.
        if shell.num_planes >= 24 and shell.sats_per_plane >= 12:
            assert lengths.max() < 0.6 * orbit_radius


class TestModcodProperties:
    @given(st.floats(min_value=-10.0, max_value=30.0))
    def test_efficiency_nonnegative_bounded(self, esn0):
        eff = float(spectral_efficiency(esn0))
        assert 0.0 <= eff <= 5.901

    @given(
        st.floats(min_value=-10.0, max_value=30.0),
        st.floats(min_value=0.0, max_value=10.0),
    )
    def test_efficiency_monotone(self, esn0, delta):
        assert float(spectral_efficiency(esn0 + delta)) >= float(
            spectral_efficiency(esn0)
        )

    @given(
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=10.0),
    )
    def test_capacity_factor_antitone_in_attenuation(self, attenuation, delta):
        assert float(weather_capacity_factor(attenuation + delta)) <= float(
            weather_capacity_factor(attenuation)
        ) + 1e-12

    @given(st.floats(min_value=0.0, max_value=100.0))
    def test_capacity_factor_in_unit_interval(self, attenuation):
        factor = float(weather_capacity_factor(attenuation))
        assert 0.0 <= factor <= 1.0


def _pair_apart(radius_m, chord_m):
    """Two points at ``radius_m`` from Earth's centre, ``chord_m`` apart."""
    half = np.arcsin(chord_m / (2.0 * radius_m))
    return (
        radius_m * np.array([np.cos(half), -np.sin(half), 0.0]),
        radius_m * np.array([np.cos(half), np.sin(half), 0.0]),
    )


class TestGrazingAltitudeProperties:
    @given(
        st.floats(min_value=6.5e6, max_value=8e6),
        st.floats(min_value=0.0, max_value=5e6),
    )
    def test_bounded_by_orbit_altitude(self, orbit_radius, length):
        grazing = isl_grazing_altitude_m(*_pair_apart(orbit_radius, length))
        assert grazing <= orbit_radius - 6_371_000.0 + 1e-6

    @given(
        st.floats(min_value=6.5e6, max_value=8e6),
        st.floats(min_value=0.0, max_value=4e6),
        st.floats(min_value=1.0, max_value=1e6),
    )
    def test_monotone_decreasing_in_length(self, orbit_radius, length, extra):
        longer = isl_grazing_altitude_m(*_pair_apart(orbit_radius, length + extra))
        shorter = isl_grazing_altitude_m(*_pair_apart(orbit_radius, length))
        assert longer <= shorter + 1e-9
