"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import EARTH_RADIUS, coverage_radius_m, orbital_period
from repro.flows.maxmin import max_min_fair_allocation
from repro.geo import geodesy
from repro.geo.landmask import is_land
from repro.network.paths import k_edge_disjoint_paths, shortest_path
from repro.orbits.coordinates import ecef_to_geodetic, eci_to_ecef, geodetic_to_ecef
from repro.orbits.kepler import propagate_circular
from tests.reference_geometry import ecef_to_eci


lat_strategy = st.floats(min_value=-89.0, max_value=89.0, allow_nan=False)
lon_strategy = st.floats(min_value=-180.0, max_value=179.999, allow_nan=False)


class TestGeodesyProperties:
    @given(lat_strategy, lon_strategy, lat_strategy, lon_strategy)
    def test_haversine_symmetry(self, lat1, lon1, lat2, lon2):
        forward = float(geodesy.haversine_m(lat1, lon1, lat2, lon2))
        backward = float(geodesy.haversine_m(lat2, lon2, lat1, lon1))
        assert forward == pytest.approx(backward, rel=1e-12, abs=1e-9)

    @given(lat_strategy, lon_strategy, lat_strategy, lon_strategy)
    def test_haversine_bounds(self, lat1, lon1, lat2, lon2):
        distance = float(geodesy.haversine_m(lat1, lon1, lat2, lon2))
        assert 0.0 <= distance <= np.pi * EARTH_RADIUS * (1 + 1e-12)

    @given(
        lat_strategy,
        lon_strategy,
        lat_strategy,
        lon_strategy,
        lat_strategy,
        lon_strategy,
    )
    def test_triangle_inequality(self, lat1, lon1, lat2, lon2, lat3, lon3):
        d12 = float(geodesy.haversine_m(lat1, lon1, lat2, lon2))
        d23 = float(geodesy.haversine_m(lat2, lon2, lat3, lon3))
        d13 = float(geodesy.haversine_m(lat1, lon1, lat3, lon3))
        assert d13 <= d12 + d23 + 1e-6

    @given(
        lat_strategy,
        lon_strategy,
        st.floats(min_value=0.0, max_value=360.0),
        st.floats(min_value=0.0, max_value=15_000e3),
    )
    def test_destination_distance_roundtrip(self, lat, lon, bearing, distance):
        dest_lat, dest_lon = geodesy.destination_point(lat, lon, bearing, distance)
        back = float(geodesy.haversine_m(lat, lon, float(dest_lat), float(dest_lon)))
        assert back == pytest.approx(distance, rel=1e-9, abs=1.0)

    @given(lat_strategy, lon_strategy)
    def test_unit_vector_roundtrip(self, lat, lon):
        vec = geodesy.unit_vectors(lat, lon)
        back_lat, back_lon = geodesy.lonlat_from_unit_vectors(vec)
        assert float(back_lat) == pytest.approx(lat, abs=1e-9)
        assert float(back_lon) == pytest.approx(lon, abs=1e-9)

    @given(st.floats(min_value=-1000.0, max_value=1000.0))
    def test_normalize_lon_range(self, lon):
        normalized = float(geodesy.normalize_lon_deg(lon))
        assert -180.0 <= normalized < 180.0
        # Same angle modulo 360.
        assert (normalized - lon) % 360.0 == pytest.approx(0.0, abs=1e-9) or (
            normalized - lon
        ) % 360.0 == pytest.approx(360.0, abs=1e-9)


class TestCoordinateProperties:
    @given(
        lat_strategy,
        lon_strategy,
        st.floats(min_value=0.0, max_value=2_000e3),
    )
    def test_geodetic_roundtrip(self, lat, lon, alt):
        ecef = geodetic_to_ecef(lat, lon, alt)
        back_lat, back_lon, back_alt = ecef_to_geodetic(ecef)
        assert float(back_lat) == pytest.approx(lat, abs=1e-9)
        assert float(back_lon) == pytest.approx(lon, abs=1e-9)
        assert float(back_alt) == pytest.approx(alt, abs=1e-6)

    @given(
        st.floats(min_value=-1e7, max_value=1e7),
        st.floats(min_value=-1e7, max_value=1e7),
        st.floats(min_value=-1e7, max_value=1e7),
        st.floats(min_value=0.0, max_value=200_000.0),
    )
    def test_eci_ecef_roundtrip(self, x, y, z, t):
        point = np.array([[x, y, z]])
        back = ecef_to_eci(eci_to_ecef(point, t), t)
        np.testing.assert_allclose(back, point, atol=1e-5)


class TestOrbitProperties:
    @given(
        st.floats(min_value=300e3, max_value=2_000e3),
        st.floats(min_value=0.0, max_value=180.0),
        st.floats(min_value=0.0, max_value=360.0),
        st.floats(min_value=0.0, max_value=360.0),
        st.floats(min_value=0.0, max_value=86400.0),
    )
    def test_radius_invariant(self, alt, inc, raan, phase, t):
        position = propagate_circular(
            np.array([alt]), np.array([inc]), np.array([raan]), np.array([phase]), t
        )[0]
        assert np.linalg.norm(position) == pytest.approx(
            EARTH_RADIUS + alt, rel=1e-12
        )

    @given(st.floats(min_value=200e3, max_value=2_000e3))
    def test_leo_periods_bounded(self, alt):
        # All LEO periods are between ~88 and ~128 minutes.
        assert 85.0 * 60 < orbital_period(alt) < 130.0 * 60

    @given(
        st.floats(min_value=300e3, max_value=2_000e3),
        st.floats(min_value=5.0, max_value=89.0),
    )
    def test_coverage_radius_bounds(self, alt, elev):
        radius = coverage_radius_m(alt, elev)
        assert 0.0 < radius < np.pi / 2 * EARTH_RADIUS


class TestLandmaskProperties:
    @given(lat_strategy, lon_strategy)
    def test_wrapped_longitude_consistent(self, lat, lon):
        assert bool(is_land(lat, lon)) == bool(is_land(lat, lon + 360.0))

    @given(st.floats(min_value=-89.0, max_value=-66.0), lon_strategy)
    def test_antarctica_is_land(self, lat, lon):
        assert bool(is_land(lat, lon))


@st.composite
def maxmin_instance(draw):
    n_edges = draw(st.integers(min_value=1, max_value=12))
    capacities = draw(
        st.lists(
            st.floats(min_value=0.5, max_value=100.0),
            min_size=n_edges,
            max_size=n_edges,
        )
    )
    n_flows = draw(st.integers(min_value=1, max_value=10))
    flows = []
    for _ in range(n_flows):
        size = draw(st.integers(min_value=1, max_value=n_edges))
        edges = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_edges - 1),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        flows.append(np.asarray(edges, dtype=np.int64))
    return flows, np.asarray(capacities)


class TestMaxMinProperties:
    @given(maxmin_instance())
    @settings(max_examples=200)
    def test_feasible_and_saturating(self, instance):
        flows, capacities = instance
        result = max_min_fair_allocation(flows, capacities)
        loads = np.zeros(len(capacities))
        for flow, rate in zip(flows, result.rates):
            loads[flow] += rate
        # Feasibility.
        assert np.all(loads <= capacities * (1 + 1e-6) + 1e-9)
        # Pareto: every flow crosses a saturated link.
        residual = capacities - loads
        for flow in flows:
            assert residual[flow].min() <= 1e-6 * capacities.max() + 1e-9

    @given(maxmin_instance())
    @settings(max_examples=100)
    def test_rates_nonnegative_and_finite(self, instance):
        flows, capacities = instance
        result = max_min_fair_allocation(flows, capacities)
        assert np.all(result.rates >= 0)
        assert np.all(np.isfinite(result.rates))


@st.composite
def random_graph(draw):
    n = draw(st.integers(min_value=4, max_value=12))
    density = draw(st.floats(min_value=0.3, max_value=0.9))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    from scipy import sparse

    rows, cols, data = [], [], []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                w = float(rng.uniform(1.0, 10.0))
                rows += [i, j]
                cols += [j, i]
                data += [w, w]
    return sparse.csr_matrix((data, (rows, cols)), shape=(n, n)), n


class TestDisjointPathProperties:
    @given(random_graph(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=100, deadline=None)
    def test_paths_edge_disjoint_and_increasing(self, graph_and_n, k):
        matrix, n = graph_and_n
        before = matrix.data.copy()
        paths = k_edge_disjoint_paths(matrix, 0, n - 1, k)
        # Matrix restored.
        np.testing.assert_array_equal(matrix.data, before)
        # Edge-disjoint.
        seen = set()
        for path in paths:
            for u, v in path.edge_pairs():
                edge = (min(u, v), max(u, v))
                assert edge not in seen
                seen.add(edge)
        # Non-decreasing lengths.
        lengths = [p.length_m for p in paths]
        assert lengths == sorted(lengths)
        # First path is THE shortest path.
        if paths:
            single = shortest_path(matrix, 0, n - 1)
            assert paths[0].length_m == pytest.approx(single.length_m)
