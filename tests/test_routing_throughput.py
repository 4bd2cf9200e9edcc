"""Unit and integration tests for routing + throughput evaluation."""

import functools

import numpy as np
import pytest

from repro.core.parallel import map_snapshot_rows
from repro.experiments.fig4_throughput import _matrix_snapshot_row
from repro.flows.routing import route_traffic
from repro.flows.throughput import evaluate_throughput
from repro.network.graph import ConnectivityMode
from repro.network.links import LinkCapacities


def _pair_rates_bps(result, num_pairs: int) -> np.ndarray:
    """Sub-flow rates summed back to their city pairs."""
    pair_index = [subflow.pair_index for subflow in result.routing.subflows]
    return np.bincount(pair_index, weights=result.allocation.rates, minlength=num_pairs)


@pytest.fixture(scope="module")
def pairs(tiny_scenario):
    # module-scoped alias; tiny_scenario itself is session-scoped.
    return tiny_scenario.pairs[:10]


class TestRouteTraffic:
    def test_k1_one_subflow_per_routable_pair(self, tiny_hybrid_graph, pairs):
        routed = route_traffic(tiny_hybrid_graph, pairs, k=1)
        assert len(routed.subflows) + len(routed.unrouted_pairs) == len(pairs)

    def test_k4_at_most_4_subflows_per_pair(self, tiny_hybrid_graph, pairs):
        routed = route_traffic(tiny_hybrid_graph, pairs, k=4)
        counts = {}
        for subflow in routed.subflows:
            counts[subflow.pair_index] = counts.get(subflow.pair_index, 0) + 1
        assert all(1 <= c <= 4 for c in counts.values())

    def test_subflow_edges_match_path(self, tiny_hybrid_graph, pairs):
        routed = route_traffic(tiny_hybrid_graph, pairs, k=2)
        graph = tiny_hybrid_graph
        for subflow in routed.subflows[:5]:
            assert len(subflow.edge_ids) == subflow.path.hops
            for edge_id, (u, v) in zip(subflow.edge_ids, subflow.path.edge_pairs()):
                edge = graph.edges[edge_id]
                assert {int(edge[0]), int(edge[1])} == {u, v}

    def test_subflows_of_pair_edge_disjoint(self, tiny_hybrid_graph, pairs):
        routed = route_traffic(tiny_hybrid_graph, pairs, k=4)
        by_pair = {}
        for subflow in routed.subflows:
            by_pair.setdefault(subflow.pair_index, []).append(subflow)
        for subflows in by_pair.values():
            seen = set()
            for subflow in subflows:
                for edge_id in subflow.edge_ids:
                    assert edge_id not in seen
                    seen.add(edge_id)

    def test_paths_start_and_end_at_cities(self, tiny_hybrid_graph, pairs):
        routed = route_traffic(tiny_hybrid_graph, pairs, k=1)
        graph = tiny_hybrid_graph
        for subflow in routed.subflows:
            pair = pairs[subflow.pair_index]
            assert subflow.path.nodes[0] == graph.gt_node(pair.a)
            assert subflow.path.nodes[-1] == graph.gt_node(pair.b)


class TestEvaluateThroughput:
    def test_aggregate_positive(self, tiny_hybrid_graph, pairs):
        result = evaluate_throughput(tiny_hybrid_graph, pairs, k=1)
        assert result.aggregate_gbps > 0

    def test_hybrid_beats_bp(self, tiny_bp_graph, tiny_hybrid_graph, tiny_scenario):
        pairs = tiny_scenario.pairs
        bp = evaluate_throughput(tiny_bp_graph, pairs, k=1)
        hybrid = evaluate_throughput(tiny_hybrid_graph, pairs, k=1)
        assert hybrid.aggregate_bps > bp.aggregate_bps

    def test_multipath_never_hurts(self, tiny_hybrid_graph, pairs):
        k1 = evaluate_throughput(tiny_hybrid_graph, pairs, k=1)
        k4 = evaluate_throughput(tiny_hybrid_graph, pairs, k=4)
        assert k4.aggregate_bps >= k1.aggregate_bps * (1 - 1e-9)

    def test_capacity_scaling(self, tiny_hybrid_graph, pairs):
        base = evaluate_throughput(tiny_hybrid_graph, pairs, k=1)
        doubled = evaluate_throughput(
            tiny_hybrid_graph,
            pairs,
            k=1,
            capacities=LinkCapacities(gt_sat_bps=40e9, isl_bps=200e9),
        )
        assert doubled.aggregate_bps == pytest.approx(2 * base.aggregate_bps, rel=1e-6)

    def test_per_pair_rates_sum_to_aggregate(self, tiny_hybrid_graph, pairs):
        result = evaluate_throughput(tiny_hybrid_graph, pairs, k=4)
        per_pair = _pair_rates_bps(result, len(pairs))
        assert per_pair.sum() == pytest.approx(result.aggregate_bps, rel=1e-9)

    def test_link_loads_feasible(self, tiny_hybrid_graph, pairs):
        caps = LinkCapacities()
        result = evaluate_throughput(tiny_hybrid_graph, pairs, k=4, capacities=caps)
        edge_caps = tiny_hybrid_graph.edge_capacities(caps)
        assert np.all(result.allocation.link_loads <= edge_caps * (1 + 1e-9))

    def test_no_pairs(self, tiny_hybrid_graph):
        result = evaluate_throughput(tiny_hybrid_graph, [], k=1)
        assert result.aggregate_bps == 0.0

    def test_isl_capacity_sweep_monotone(self, tiny_hybrid_graph, tiny_scenario):
        """More ISL capacity can never reduce hybrid throughput."""
        pairs = tiny_scenario.pairs
        previous = 0.0
        for ratio in (0.5, 1.0, 3.0, 5.0):
            caps = LinkCapacities().scaled_isl(ratio)
            result = evaluate_throughput(tiny_hybrid_graph, pairs, k=4, capacities=caps)
            assert result.aggregate_bps >= previous * (1 - 1e-9)
            previous = result.aggregate_bps


def _throughput_series(scenario, modes) -> dict:
    """k = 1 aggregate throughput at every snapshot, Gbps, per mode.

    fig4's evaluator mapped over the scenario's snapshot grid.
    """
    evaluator = functools.partial(_matrix_snapshot_row, ks=(1,))
    rows = map_snapshot_rows(scenario, modes, evaluator, row_len=1)
    return {mode: rows[mode][0] for mode in modes}


class TestThroughputSeries:
    def test_series_shape_and_positivity(self, tiny_scenario):
        hybrid = ConnectivityMode.HYBRID
        series = _throughput_series(tiny_scenario, [hybrid])[hybrid]
        assert series.shape == (len(tiny_scenario.times_s),)
        assert np.all(series > 0)

    def test_hybrid_dominates_bp_at_every_snapshot(self, tiny_scenario):
        modes = [ConnectivityMode.BP_ONLY, ConnectivityMode.HYBRID]
        bp, hybrid = _throughput_series(tiny_scenario, modes).values()
        assert np.all(hybrid >= bp)
