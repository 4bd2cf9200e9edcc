"""Tests for the extension features: fiber edges, GSO masking,
equal-split allocation, node-disjoint paths, per-satellite caps."""

import numpy as np
import pytest
from dataclasses import replace

from repro.flows.equalsplit import equal_split_allocation
from repro.flows.maxmin import max_min_fair_allocation
from repro.flows.throughput import evaluate_throughput
from repro.network.fiber import (
    FIBER_DETOUR_FACTOR,
    FIBER_REFRACTIVE_INDEX,
    city_fiber_edges,
    fiber_equivalent_distance_m,
)
from repro.network.graph import (
    _KIND_FIBER,
    _KIND_GT_SAT,
    _KIND_ISL,
    ConnectivityMode,
    GsoProtectionPolicy,
)
from repro.network.links import LinkCapacities
from repro.network.paths import k_node_disjoint_paths, shortest_path
from tests.conftest import TINY_SCALE


class TestFiberEdges:
    def test_equivalent_distance_slower_than_vacuum(self):
        assert float(fiber_equivalent_distance_m(1000.0)) > 1000.0
        assert float(fiber_equivalent_distance_m(1000.0)) == pytest.approx(
            1000.0 * FIBER_DETOUR_FACTOR * FIBER_REFRACTIVE_INDEX
        )

    def test_city_fiber_edges_within_radius(self):
        lats = np.array([48.86, 48.45, 0.0])  # Paris, Chartres, far away
        lons = np.array([2.35, 1.48, 100.0])
        edges, dists = city_fiber_edges(lats, lons, 200.0)
        assert len(edges) == 1
        assert tuple(edges[0]) == (0, 1)
        assert dists[0] > 0

    def test_no_cities(self):
        edges, dists = city_fiber_edges(np.empty(0), np.empty(0), 100.0)
        assert len(edges) == 0

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            city_fiber_edges(np.zeros(2), np.zeros(2), 0.0)

    def test_graph_with_fiber_has_fiber_kind(self, tiny_scenario):
        scenario = replace(tiny_scenario, fiber_max_km=800.0)
        graph = scenario.graph_at(0.0, ConnectivityMode.HYBRID)
        fiber_edges = np.nonzero(graph.edge_kind == 2)[0]
        assert len(fiber_edges) > 0
        for idx in fiber_edges[:5]:
            assert graph.edge_kind[idx] == _KIND_FIBER
            u, v = graph.edges[idx]
            # Fiber connects city GTs only.
            assert not graph.is_sat_node(int(u))
            assert not graph.is_sat_node(int(v))
            assert (u - graph.num_sats) < graph.stations.city_count
            assert (v - graph.num_sats) < graph.stations.city_count

    def test_fiber_capacity_applied(self, tiny_scenario):
        scenario = replace(tiny_scenario, fiber_max_km=800.0)
        graph = scenario.graph_at(0.0, ConnectivityMode.HYBRID)
        caps = graph.edge_capacities(LinkCapacities(fiber_bps=123e9))
        assert np.all(caps[graph.edge_kind == 2] == 123e9)

    def test_fiber_never_increases_shortest_path(self, tiny_scenario):
        plain = tiny_scenario.graph_at(0.0, ConnectivityMode.BP_ONLY)
        fibered = replace(tiny_scenario, fiber_max_km=800.0).graph_at(
            0.0, ConnectivityMode.BP_ONLY
        )
        pair = tiny_scenario.pairs[0]
        p_plain = shortest_path(plain.matrix(), plain.gt_node(pair.a), plain.gt_node(pair.b))
        p_fiber = shortest_path(
            fibered.matrix(), fibered.gt_node(pair.a), fibered.gt_node(pair.b)
        )
        assert p_fiber.length_m <= p_plain.length_m + 1e-6


class TestGsoPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            GsoProtectionPolicy(-1.0)
        with pytest.raises(ValueError):
            GsoProtectionPolicy(10.0, lat_bin_deg=0.0)

    def test_masking_removes_edges(self, tiny_scenario):
        plain = tiny_scenario.graph_at(0.0, ConnectivityMode.BP_ONLY)
        masked = replace(
            tiny_scenario, gso_policy=GsoProtectionPolicy(22.0)
        ).graph_at(0.0, ConnectivityMode.BP_ONLY)
        assert masked.num_edges < plain.num_edges

    def test_zero_separation_keeps_everything(self, tiny_scenario):
        plain = tiny_scenario.graph_at(0.0, ConnectivityMode.BP_ONLY)
        masked = replace(
            tiny_scenario, gso_policy=GsoProtectionPolicy(0.0)
        ).graph_at(0.0, ConnectivityMode.BP_ONLY)
        assert masked.num_edges == plain.num_edges

    def test_isls_unaffected(self, tiny_scenario):
        plain = tiny_scenario.graph_at(0.0, ConnectivityMode.HYBRID)
        masked = replace(
            tiny_scenario, gso_policy=GsoProtectionPolicy(22.0)
        ).graph_at(0.0, ConnectivityMode.HYBRID)
        assert int(np.sum(masked.edge_kind == 1)) == int(np.sum(plain.edge_kind == 1))

    def test_surviving_edges_respect_separation(self, tiny_scenario):
        from repro.orbits.visibility import min_gso_separation_deg, elevation_deg
        from tests.reference_geometry import initial_bearing_deg
        from repro.orbits.coordinates import ecef_to_geodetic

        policy = GsoProtectionPolicy(22.0, lat_bin_deg=0.25)
        masked = replace(tiny_scenario, gso_policy=policy).graph_at(
            0.0, ConnectivityMode.BP_ONLY
        )
        rng = np.random.default_rng(0)
        sample = rng.choice(masked.num_edges, size=min(40, masked.num_edges), replace=False)
        for idx in sample:
            sat, gt = masked.edges[idx]
            gt_idx = gt - masked.num_sats
            gt_ecef = masked.gt_ecef[gt_idx]
            sat_ecef = masked.sat_ecef[sat]
            gt_lat, gt_lon, _ = ecef_to_geodetic(gt_ecef)
            sat_lat, sat_lon, _ = ecef_to_geodetic(sat_ecef)
            elev = float(elevation_deg(gt_ecef, sat_ecef))
            azim = float(initial_bearing_deg(gt_lat, gt_lon, sat_lat, sat_lon))
            separation = float(
                min_gso_separation_deg(
                    float(gt_lat), np.array([elev]), np.array([azim])
                )[0]
            )
            # Allow slack for the latitude binning + azimuth approximation.
            assert separation > 22.0 - 3.0


class TestEqualSplit:
    def test_never_beats_maxmin(self, rng):
        n_edges = 20
        capacities = rng.uniform(1.0, 50.0, n_edges)
        flows = [
            rng.choice(n_edges, size=rng.integers(1, 5), replace=False).astype(np.int64)
            for _ in range(25)
        ]
        equal = equal_split_allocation(flows, capacities)
        maxmin = max_min_fair_allocation(flows, capacities)
        assert equal.total_rate <= maxmin.total_rate * (1 + 1e-9)

    def test_feasible(self, rng):
        n_edges = 15
        capacities = rng.uniform(1.0, 50.0, n_edges)
        flows = [
            rng.choice(n_edges, size=rng.integers(1, 4), replace=False).astype(np.int64)
            for _ in range(20)
        ]
        result = equal_split_allocation(flows, capacities)
        assert np.all(result.link_loads <= capacities * (1 + 1e-9))

    def test_single_flow(self):
        result = equal_split_allocation([np.array([0, 1])], np.array([4.0, 10.0]))
        assert result.rates[0] == pytest.approx(4.0)

    def test_matches_maxmin_on_symmetric_instance(self):
        flows = [np.array([0]), np.array([0])]
        caps = np.array([10.0])
        equal = equal_split_allocation(flows, caps)
        maxmin = max_min_fair_allocation(flows, caps)
        np.testing.assert_allclose(equal.rates, maxmin.rates)

    def test_validation(self):
        with pytest.raises(ValueError):
            equal_split_allocation([np.array([], dtype=np.int64)], np.array([1.0]))
        with pytest.raises(ValueError):
            equal_split_allocation([np.array([3])], np.array([1.0]))


class TestNodeDisjoint:
    def test_stricter_than_edge_disjoint(self, tiny_hybrid_graph, tiny_scenario):
        from repro.network.paths import k_edge_disjoint_paths

        matrix = tiny_hybrid_graph.matrix()
        pair = tiny_scenario.pairs[0]
        s, t = tiny_hybrid_graph.gt_node(pair.a), tiny_hybrid_graph.gt_node(pair.b)
        node_paths = k_node_disjoint_paths(matrix, s, t, 4)
        edge_paths = k_edge_disjoint_paths(matrix, s, t, 4)
        assert len(node_paths) <= len(edge_paths)
        # Intermediate nodes unique across node-disjoint paths.
        seen = set()
        for path in node_paths:
            for node in path.nodes[1:-1]:
                assert node not in seen
                seen.add(node)

    def test_matrix_restored(self, tiny_hybrid_graph, tiny_scenario):
        matrix = tiny_hybrid_graph.matrix()
        before = matrix.data.copy()
        pair = tiny_scenario.pairs[1]
        k_node_disjoint_paths(
            matrix,
            tiny_hybrid_graph.gt_node(pair.a),
            tiny_hybrid_graph.gt_node(pair.b),
            4,
        )
        np.testing.assert_array_equal(matrix.data, before)

    def test_rejects_bad_k(self, tiny_hybrid_graph):
        with pytest.raises(ValueError):
            k_node_disjoint_paths(tiny_hybrid_graph.matrix(), 0, 1, 0)


class TestSatelliteCap:
    def test_cap_reduces_throughput(self, tiny_bp_graph, tiny_scenario):
        pairs = tiny_scenario.pairs
        free = evaluate_throughput(tiny_bp_graph, pairs, k=1)
        capped = evaluate_throughput(
            tiny_bp_graph, pairs, k=1, satellite_radio_cap_bps=20e9
        )
        assert capped.aggregate_bps <= free.aggregate_bps * (1 + 1e-9)

    def test_cap_hits_bp_harder(self, tiny_bp_graph, tiny_hybrid_graph, tiny_scenario):
        pairs = tiny_scenario.pairs
        bp_free = evaluate_throughput(tiny_bp_graph, pairs, k=1).aggregate_bps
        hy_free = evaluate_throughput(tiny_hybrid_graph, pairs, k=1).aggregate_bps
        bp_cap = evaluate_throughput(
            tiny_bp_graph, pairs, k=1, satellite_radio_cap_bps=20e9
        ).aggregate_bps
        hy_cap = evaluate_throughput(
            tiny_hybrid_graph, pairs, k=1, satellite_radio_cap_bps=20e9
        ).aggregate_bps
        assert hy_cap / bp_cap > hy_free / bp_free

    def test_loose_cap_is_noop(self, tiny_hybrid_graph, tiny_scenario):
        pairs = tiny_scenario.pairs[:10]
        free = evaluate_throughput(tiny_hybrid_graph, pairs, k=1)
        loose = evaluate_throughput(
            tiny_hybrid_graph, pairs, k=1, satellite_radio_cap_bps=1e15
        )
        assert loose.aggregate_bps == pytest.approx(free.aggregate_bps, rel=1e-9)

    def test_invalid_cap(self, tiny_hybrid_graph, tiny_scenario):
        with pytest.raises(ValueError):
            evaluate_throughput(
                tiny_hybrid_graph,
                tiny_scenario.pairs[:2],
                k=1,
                satellite_radio_cap_bps=0.0,
            )

    @pytest.mark.parametrize("mode", ["bp", "hybrid"])
    def test_virtual_links_match_per_hop_reference(
        self, tiny_bp_graph, tiny_hybrid_graph, tiny_scenario, mode
    ):
        from repro.flows.routing import route_traffic
        from repro.flows.throughput import _with_satellite_cap

        graph = tiny_bp_graph if mode == "bp" else tiny_hybrid_graph
        routing = route_traffic(graph, tiny_scenario.pairs, k=4)
        caps = graph.edge_capacities(LinkCapacities())
        flows, capacities = _with_satellite_cap(graph, routing, caps, 20e9)
        # Per hop: a radio hop touches exactly one satellite, whose
        # virtual link follows the sub-flow's edges in hop order.
        want = []
        for subflow in routing.subflows:
            extras = [
                graph.num_edges + (u if graph.is_sat_node(u) else v)
                for u, v in subflow.path.edge_pairs()
                if graph.is_sat_node(u) != graph.is_sat_node(v)
            ]
            want.append(np.concatenate([subflow.edge_ids, np.asarray(extras, int)]))
        assert len(flows) == len(want) > 0
        for got, expected in zip(flows, want):
            np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(
            capacities, np.concatenate([caps, np.full(graph.num_sats, 20e9)])
        )


class TestBeamLimit:
    def test_limit_enforced(self, tiny_scenario):
        from dataclasses import replace

        limited = replace(tiny_scenario, max_gts_per_satellite=6).graph_at(
            0.0, ConnectivityMode.BP_ONLY
        )
        degrees = np.bincount(limited.edges[:, 0], minlength=limited.num_sats)
        assert degrees.max() <= 6

    def test_kept_edges_are_closest(self, tiny_scenario, tiny_bp_graph):
        from dataclasses import replace

        limited = replace(tiny_scenario, max_gts_per_satellite=4).graph_at(
            0.0, ConnectivityMode.BP_ONLY
        )
        full = tiny_bp_graph
        for sat in range(0, full.num_sats, 200):
            full_dists = np.sort(full.edge_dist_m[full.edges[:, 0] == sat])
            kept_dists = np.sort(limited.edge_dist_m[limited.edges[:, 0] == sat])
            expected = full_dists[: len(kept_dists)]
            np.testing.assert_allclose(kept_dists, expected)

    def test_limit_subset_of_full(self, tiny_scenario, tiny_bp_graph):
        from dataclasses import replace

        limited = replace(tiny_scenario, max_gts_per_satellite=8).graph_at(
            0.0, ConnectivityMode.BP_ONLY
        )
        full_set = {tuple(e) for e in tiny_bp_graph.edges.tolist()}
        limited_set = {tuple(e) for e in limited.edges.tolist()}
        assert limited_set <= full_set

    def test_validation(self, tiny_scenario):
        from dataclasses import replace

        with pytest.raises(ValueError):
            replace(tiny_scenario, max_gts_per_satellite=0).graph_at(
                0.0, ConnectivityMode.BP_ONLY
            )

    def test_isls_untouched(self, tiny_scenario, tiny_hybrid_graph):
        from dataclasses import replace

        limited = replace(tiny_scenario, max_gts_per_satellite=4).graph_at(
            0.0, ConnectivityMode.HYBRID
        )
        assert int(np.sum(limited.edge_kind == 1)) == int(
            np.sum(tiny_hybrid_graph.edge_kind == 1)
        )


class TestFeatureComposition:
    """All modelling switches enabled together must compose cleanly."""

    @pytest.fixture(scope="class")
    def kitchen_sink(self):
        from repro.core.scenario import Scenario
        from tests.conftest import TINY_SCALE

        return replace(
            Scenario.paper_default("starlink", TINY_SCALE),
            gso_policy=GsoProtectionPolicy(22.0),
            fiber_max_km=800.0,
            max_gts_per_satellite=12,
            traffic_weighting="gravity",
        )

    def test_graph_builds_with_all_features(self, kitchen_sink):
        graph = kitchen_sink.graph_at(0.0, ConnectivityMode.HYBRID)
        kinds = np.bincount(graph.edge_kind, minlength=3)
        assert kinds[_KIND_ISL] > 0
        assert kinds[_KIND_FIBER] > 0
        assert kinds[_KIND_GT_SAT] > 0

    def test_beam_limit_holds_after_gso_mask(self, kitchen_sink):
        graph = kitchen_sink.graph_at(0.0, ConnectivityMode.BP_ONLY)
        radio = graph.edges[graph.edge_kind == 0]
        degrees = np.bincount(radio[:, 0], minlength=graph.num_sats)
        assert degrees.max() <= 12

    def test_throughput_runs_end_to_end(self, kitchen_sink):
        graph = kitchen_sink.graph_at(0.0, ConnectivityMode.HYBRID)
        result = evaluate_throughput(graph, kitchen_sink.pairs, k=2)
        assert result.aggregate_gbps > 0

    def test_latency_pipeline_runs(self, kitchen_sink):
        from repro.core.pipeline import compute_rtt_series_multi

        series = compute_rtt_series_multi(
            kitchen_sink, [ConnectivityMode.HYBRID]
        )[ConnectivityMode.HYBRID]
        assert series.reachable_fraction() > 0.5
