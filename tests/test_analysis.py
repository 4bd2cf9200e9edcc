"""Tests for post-hoc analysis utilities (composition, RTT jumps, corridors)."""

import numpy as np
import pytest

from repro.analysis import path_composition
from tests.conftest import routed_node_paths


class TestPathStretch:
    def test_real_hybrid_paths_modest_stretch(self, tiny_hybrid_graph, tiny_scenario):
        paths = routed_node_paths(tiny_hybrid_graph, tiny_scenario.pairs)
        matrix = tiny_hybrid_graph.matrix()
        from scipy.sparse import csgraph

        for pair, nodes in zip(tiny_scenario.pairs, paths):
            if nodes is None or pair.distance_m < 4_000e3:
                continue
            dist = csgraph.dijkstra(
                matrix, directed=True, indices=nodes[0]
            )[nodes[-1]]
            # Path length over the great-circle distance: up and down
            # hops keep it above 1, ISLs keep long hybrid paths below 2.
            assert 1.0 <= float(dist) / pair.distance_m < 2.0


class TestPathComposition:
    def test_bp_path_has_no_isl_hops(self, tiny_bp_graph, tiny_scenario):
        paths = routed_node_paths(tiny_bp_graph, tiny_scenario.pairs)
        nodes = next(p for p in paths if p is not None)
        comp = path_composition(tiny_bp_graph, nodes)
        assert comp.isl_hops == 0
        assert comp.radio_hops == comp.satellite_hops * 2
        assert comp.fiber_hops == 0

    def test_hybrid_long_path_uses_isls(self, tiny_hybrid_graph, tiny_scenario):
        paths = routed_node_paths(tiny_hybrid_graph, tiny_scenario.pairs)
        longest_idx = int(
            np.argmax([p.distance_m for p in tiny_scenario.pairs])
        )
        nodes = paths[longest_idx]
        assert nodes is not None
        comp = path_composition(tiny_hybrid_graph, nodes)
        assert comp.isl_hops > 0

    def test_hop_counts_sum(self, tiny_hybrid_graph, tiny_scenario):
        paths = routed_node_paths(tiny_hybrid_graph, tiny_scenario.pairs)
        nodes = next(p for p in paths if p is not None)
        comp = path_composition(tiny_hybrid_graph, nodes)
        assert comp.isl_hops + comp.radio_hops + comp.fiber_hops == len(nodes) - 1

    def test_endpoints_are_cities(self, tiny_bp_graph, tiny_scenario):
        paths = routed_node_paths(tiny_bp_graph, tiny_scenario.pairs)
        nodes = next(p for p in paths if p is not None)
        comp = path_composition(tiny_bp_graph, nodes)
        assert comp.city_gts >= 2
        assert comp.intermediate_gts == (
            comp.city_gts + comp.relay_gts + comp.aircraft_gts - 2
        )


class TestRttJumps:
    def test_jump_values(self):
        from repro.analysis import rtt_jumps_ms
        from repro.core.pipeline import RttSeries
        from repro.network.graph import ConnectivityMode

        rtt = np.array([[10.0, 12.0, np.inf, 15.0]])
        series = RttSeries(
            mode=ConnectivityMode.HYBRID, times_s=np.arange(4.0), rtt_ms=rtt
        )
        jumps = rtt_jumps_ms(series)
        # Only the finite-to-finite step (10 -> 12) contributes.
        np.testing.assert_allclose(jumps, [2.0])

    def test_single_snapshot_no_jumps(self):
        from repro.analysis import rtt_jumps_ms
        from repro.core.pipeline import RttSeries
        from repro.network.graph import ConnectivityMode

        series = RttSeries(
            mode=ConnectivityMode.HYBRID,
            times_s=np.zeros(1),
            rtt_ms=np.array([[10.0]]),
        )
        assert len(rtt_jumps_ms(series)) == 0

    def test_real_series_bp_jumps_larger(self, tiny_scenario):
        from repro.analysis import rtt_jumps_ms
        from repro.core.pipeline import compute_rtt_series_multi
        from repro.network.graph import ConnectivityMode

        modes = [ConnectivityMode.BP_ONLY, ConnectivityMode.HYBRID]
        series = compute_rtt_series_multi(tiny_scenario, modes)
        bp = rtt_jumps_ms(series[ConnectivityMode.BP_ONLY])
        hy = rtt_jumps_ms(series[ConnectivityMode.HYBRID])
        assert len(bp) and len(hy)
        # The Fig. 2(b) effect seen per-step: BP jumps at least as hard.
        assert np.median(bp) >= 0.5 * np.median(hy)


class TestCorridorSummary:
    @pytest.fixture(scope="class")
    def summary(self, tiny_scenario):
        from repro.analysis import corridor_summary
        from repro.core.comparison import compare_latency

        comparison = compare_latency(tiny_scenario)
        return corridor_summary(
            tiny_scenario, comparison.bp_stats, comparison.hybrid_stats, min_pairs=1
        )

    def test_rows_sorted_by_gap(self, summary):
        gaps = [row["median_min_rtt_gap_ms"] for row in summary]
        assert gaps == sorted(gaps, reverse=True)

    def test_pair_counts_cover_matrix(self, summary, tiny_scenario):
        assert sum(row["pairs"] for row in summary) == len(tiny_scenario.pairs)

    def test_gaps_nonnegative(self, summary):
        # Hybrid is a superset network: BP min RTT can never be lower.
        for row in summary:
            assert row["median_min_rtt_gap_ms"] >= -1e-6

    def test_corridor_names_valid(self, summary):
        for row in summary:
            assert row["corridor"].startswith("intra-") or " - " in row["corridor"]
