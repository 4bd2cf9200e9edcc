"""Unit tests for snapshot graph construction."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.constants import slant_range_m
from repro.context import run_context
from repro.flows.routing import route_traffic_multi_k
from repro.ground.stations import StationTable
from repro.network.graph import ConnectivityMode
from repro.network.links import LinkCapacities
from repro.obs import observe
from repro.orbits.visibility import elevation_deg
from tests.reference_graph import build_snapshot_graph, graph_from_rows


class TestModes:
    def test_bp_graph_has_no_isls(self, tiny_bp_graph):
        assert np.all(tiny_bp_graph.edge_kind == 0)

    def test_hybrid_graph_has_isls(self, tiny_hybrid_graph):
        assert np.any(tiny_hybrid_graph.edge_kind == 1)

    def test_hybrid_isl_count(self, tiny_hybrid_graph, starlink_constellation):
        isl_edges = int(np.sum(tiny_hybrid_graph.edge_kind == 1))
        assert isl_edges == 2 * starlink_constellation.num_satellites

    def test_gt_sat_edges_identical_across_modes(self, tiny_bp_graph, tiny_hybrid_graph):
        bp_edges = tiny_bp_graph.edges
        hy_gt_edges = tiny_hybrid_graph.edges[tiny_hybrid_graph.edge_kind == 0]
        np.testing.assert_array_equal(bp_edges, hy_gt_edges)

    def test_isl_only_uses_isls(self, tiny_scenario):
        graph = tiny_scenario.graph_at(0.0, ConnectivityMode.ISL_ONLY)
        assert graph.mode.uses_isls
        assert np.any(graph.edge_kind == 1)


class TestVisibilityEdges:
    def test_every_edge_respects_min_elevation(self, tiny_bp_graph):
        graph = tiny_bp_graph
        for u, v in graph.edges[:: max(len(graph.edges) // 100, 1)]:
            sat_pos = graph.sat_ecef[u]
            gt_pos = graph.gt_ecef[v - graph.num_sats]
            elev = float(elevation_deg(gt_pos, sat_pos))
            # Small slack: visibility uses the ground-projection test and
            # aircraft GTs sit slightly above the surface.
            assert elev >= 24.0

    def test_edge_distances_match_geometry(self, tiny_bp_graph):
        graph = tiny_bp_graph
        u, v = graph.edges[0]
        expected = np.linalg.norm(graph.sat_ecef[u] - graph.gt_ecef[v - graph.num_sats])
        assert graph.edge_dist_m[0] == pytest.approx(expected)

    def test_gt_sat_distances_bounded_by_slant_range(self, tiny_bp_graph):
        # No GT-sat link can exceed the slant range at minimum elevation
        # (plus aircraft-altitude slack).
        max_range = slant_range_m(550e3, 25.0) + 50e3
        gt_sat = tiny_bp_graph.edge_kind == 0
        assert tiny_bp_graph.edge_dist_m[gt_sat].max() <= max_range

    def test_every_city_gt_sees_a_satellite(self, tiny_bp_graph):
        """Starlink's 53-degree shell covers every city in the tiny set."""
        graph = tiny_bp_graph
        connected = set(graph.edges[:, 1].tolist())
        for city_idx in range(graph.stations.city_count):
            assert graph.gt_node(city_idx) in connected

    def test_node_indexing(self, tiny_bp_graph):
        graph = tiny_bp_graph
        assert graph.num_nodes == graph.num_sats + graph.num_gts
        assert graph.is_sat_node(0)
        assert not graph.is_sat_node(graph.num_sats)
        assert graph.gt_node(0) == graph.num_sats
        with pytest.raises(IndexError):
            graph.gt_node(graph.num_gts)


class TestMatrix:
    def test_matrix_symmetric(self, tiny_hybrid_graph):
        matrix = tiny_hybrid_graph.matrix()
        diff = (matrix - matrix.T).tocoo()
        assert len(diff.data) == 0 or np.abs(diff.data).max() < 1e-9

    def test_matrix_cached(self, tiny_hybrid_graph):
        assert tiny_hybrid_graph.matrix() is tiny_hybrid_graph.matrix()

    def test_repeated_edge_rejected(self):
        stations = StationTable(
            lats=np.zeros(1), lons=np.zeros(1), altitudes=np.zeros(1),
            city_count=1, relay_count=0,
        )
        graph = graph_from_rows(
            [[0, 1], [1, 0]], [5.0, 6.0], num_sats=1, stations=stations
        )
        with pytest.raises(ValueError, match="repeated edge"):
            graph.matrix()

    def test_non_strict_routing_builds_no_edge_table(self, tiny_scenario):
        # A fresh copy holds no table another test may have built.
        graph = dataclasses.replace(
            tiny_scenario.graph_at(0.0, ConnectivityMode.HYBRID)
        )
        with run_context(strict=False), observe() as registry:
            routed = route_traffic_multi_k(graph, tiny_scenario.pairs, (1, 4))
        assert routed[4].subflows
        assert registry.snapshot()["counters"].get("engine.edge_tables", 0) == 0


@st.composite
def _random_graphs(draw):
    """Random graphs of satellites, cities and relays: radio, ISL and
    fiber rows over distinct node pairs, some nodes left isolated."""
    num_sats = draw(st.integers(min_value=1, max_value=6))
    cities = draw(st.integers(min_value=1, max_value=4))
    relays = draw(st.integers(min_value=0, max_value=3))
    num_nodes = num_sats + cities + relays
    node = st.integers(min_value=0, max_value=num_nodes - 1)
    pairs = draw(
        st.lists(
            st.tuples(node, node).filter(lambda p: p[0] != p[1]),
            max_size=3 * num_nodes,
            unique_by=lambda p: (min(p), max(p)),
        )
    )
    lengths = draw(
        st.lists(
            st.floats(min_value=1.0, max_value=1e7),
            min_size=len(pairs),
            max_size=len(pairs),
        )
    )
    stations = StationTable(
        lats=np.zeros(cities + relays),
        lons=np.zeros(cities + relays),
        altitudes=np.zeros(cities + relays),
        city_count=cities,
        relay_count=relays,
    )
    return graph_from_rows(pairs, lengths, num_sats=num_sats, stations=stations)


class TestEntryIndex:
    """The physical CSR and the routing lookups derived from it."""

    @given(graph=_random_graphs())
    @settings(max_examples=150, deadline=None)
    def test_matches_a_plain_build(self, graph):
        n, m = graph.num_nodes, graph.num_edges
        u, v = graph.edges[:, 0], graph.edges[:, 1]
        want = sparse.csr_matrix(
            (np.concatenate([graph.edge_dist_m] * 2),
             (np.concatenate([u, v]), np.concatenate([v, u]))),
            shape=(n, n),
        )
        got = graph.matrix()
        for part in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(got, part), getattr(want, part))
            assert getattr(got, part).dtype == getattr(want, part).dtype

        by_hop = {}
        for edge, (a, b) in enumerate(graph.edges.tolist()):
            by_hop[a, b] = by_hop[b, a] = edge
        hops = np.array(list(by_hop), dtype=np.int64).reshape(-1, 2)
        np.testing.assert_array_equal(
            graph.edge_ids_for_pairs(hops[:, 0], hops[:, 1]),
            list(by_hop.values()),
        )
        missing = next(
            (a, b) for a in range(n) for b in range(n) if (a, b) not in by_hop
        )
        with pytest.raises(KeyError):
            graph.edge_ids_for_pairs([missing[0]], [missing[1]])

        positions = graph.edge_csr_positions(np.arange(m)).reshape(m, 2)
        rows = np.repeat(np.arange(n), np.diff(got.indptr))
        np.testing.assert_array_equal(rows[positions], graph.edges)
        np.testing.assert_array_equal(got.indices[positions], graph.edges[:, ::-1])
        np.testing.assert_array_equal(
            graph.entry_edge_ids()[positions], np.repeat(np.arange(m), 2).reshape(m, 2)
        )


class TestCapacities:
    def test_edge_capacities_by_kind(self, tiny_hybrid_graph):
        caps = tiny_hybrid_graph.edge_capacities(LinkCapacities())
        gt_sat = tiny_hybrid_graph.edge_kind == 0
        assert np.all(caps[gt_sat] == 20e9)
        assert np.all(caps[~gt_sat] == 100e9)


class TestComponents:
    def test_hybrid_satellites_never_disconnected(self, tiny_hybrid_graph):
        stats = tiny_hybrid_graph.satellite_component_stats()
        assert stats["disconnected_satellites"] == 0

    def test_bp_has_disconnected_satellites(self, tiny_bp_graph):
        """The Section 5 effect: ocean satellites serve nobody under BP."""
        stats = tiny_bp_graph.satellite_component_stats()
        assert stats["disconnected_fraction"] > 0.10

    def test_component_arithmetic(self, tiny_bp_graph):
        stats = tiny_bp_graph.satellite_component_stats()
        assert 0 <= stats["disconnected_satellites"] <= tiny_bp_graph.num_sats
        assert stats["giant_component_size"] <= tiny_bp_graph.num_nodes


class TestDynamics:
    def test_graph_changes_over_time(self, tiny_scenario):
        g0 = tiny_scenario.graph_at(0.0, ConnectivityMode.BP_ONLY)
        g1 = tiny_scenario.graph_at(900.0, ConnectivityMode.BP_ONLY)
        # Satellites moved ~400 km along-track; the edge set must differ.
        assert g0.num_edges != g1.num_edges or not np.array_equal(g0.edges, g1.edges)

    def test_empty_station_table(self, starlink_constellation):
        from repro.ground.stations import StationTable

        empty = StationTable(
            lats=np.empty(0),
            lons=np.empty(0),
            altitudes=np.empty(0),
            city_count=0,
            relay_count=0,
        )
        graph = build_snapshot_graph(
            starlink_constellation, empty, 0.0, ConnectivityMode.HYBRID
        )
        assert graph.num_gts == 0
        assert np.all(graph.edge_kind == 1)  # Only ISLs remain.


class TestNetworkxExport:
    """The physical CSR, exported to networkx, gives the same shortest paths."""

    def test_shortest_path_agrees_with_csgraph(self, tiny_hybrid_graph, tiny_scenario):
        import networkx as nx

        from repro.network.paths import shortest_path

        pair = tiny_scenario.pairs[0]
        s = tiny_hybrid_graph.gt_node(pair.a)
        t = tiny_hybrid_graph.gt_node(pair.b)
        own = shortest_path(tiny_hybrid_graph.matrix(), s, t)
        nx_graph = nx.from_scipy_sparse_array(tiny_hybrid_graph.matrix())
        nx_length = nx.shortest_path_length(nx_graph, s, t, weight="weight")
        assert own.length_m == pytest.approx(nx_length, rel=1e-9)

