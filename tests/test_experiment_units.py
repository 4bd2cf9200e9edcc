"""Unit tests for the helper functions inside experiment modules."""

import numpy as np
import pytest
from dataclasses import replace

from repro.core.scenario import Scenario, ScenarioScale
from repro.experiments.ext_deployment import partial_starlink
from repro.experiments.ext_gso_impact import cross_equatorial_pairs
from repro.experiments.fig3_path_variation import path_profile
from repro.experiments.fig4_throughput import throughput_matrix
from repro.experiments.fig10_cross_shell import shells_used
from repro.flows.routing import route_traffic
from repro.network.graph import ConnectivityMode
from tests.conftest import TINY_SCALE


def _path_at(scenario, pair, time_s, mode):
    """``(graph, path)`` of one pair's routed shortest path at one instant."""
    graph = scenario.graph_at(time_s, mode)
    (path,) = route_traffic(graph, [pair]).first_paths()
    return graph, path


class TestThroughputMatrix:
    def test_custom_ks(self, tiny_scenario):
        matrix = throughput_matrix(tiny_scenario, ks=(1, 2))
        assert set(matrix) == {("bp", 1), ("bp", 2), ("hybrid", 1), ("hybrid", 2)}
        for value in matrix.values():
            assert value > 0

    def test_hybrid_dominates_per_k(self, tiny_scenario):
        matrix = throughput_matrix(tiny_scenario, ks=(1,))
        assert matrix[("hybrid", 1)] > matrix[("bp", 1)]


class TestPathProfile:
    def test_profile_fields(self, tiny_scenario):
        pair = tiny_scenario.pairs[0]
        graph, path = _path_at(tiny_scenario, pair, 0.0, ConnectivityMode.BP_ONLY)
        assert path is not None
        profile = path_profile(graph, path)
        assert profile["total_hops"] == path.hops
        assert profile["rtt_ms"] > 0
        assert profile["aircraft_hops"] >= 0
        assert profile["relay_hops"] >= 0
        assert -90.0 <= profile["max_lat_deg"] <= 90.0

    def test_hybrid_profile_fewer_gt_hops(self, tiny_scenario):
        pair = max(tiny_scenario.pairs, key=lambda p: p.distance_m)
        bp_graph, bp_path = _path_at(
            tiny_scenario, pair, 0.0, ConnectivityMode.BP_ONLY
        )
        hy_graph, hy_path = _path_at(
            tiny_scenario, pair, 0.0, ConnectivityMode.HYBRID
        )
        if bp_path is None or hy_path is None:
            pytest.skip("pair unreachable at tiny scale")
        bp = path_profile(bp_graph, bp_path)
        hy = path_profile(hy_graph, hy_path)
        assert (
            hy["aircraft_hops"] + hy["relay_hops"]
            <= bp["aircraft_hops"] + bp["relay_hops"]
        )


class TestShellsUsed:
    def test_single_shell_paths_use_shell_zero(self, tiny_scenario):
        pair = tiny_scenario.pairs[0]
        graph, path = _path_at(tiny_scenario, pair, 0.0, ConnectivityMode.HYBRID)
        used = shells_used(tiny_scenario.constellation, path.nodes, graph.num_sats)
        assert used == {0}

    def test_gt_only_nodes_use_no_shell(self, tiny_scenario):
        graph = tiny_scenario.graph_at(0.0, ConnectivityMode.HYBRID)
        used = shells_used(
            tiny_scenario.constellation,
            (graph.gt_node(0), graph.gt_node(1)),
            graph.num_sats,
        )
        assert used == set()


class TestCrossEquatorialPairs:
    def test_pairs_cross_equator(self, tiny_scenario):
        crossers = cross_equatorial_pairs(tiny_scenario)
        cities = tiny_scenario.ground.cities
        for pair in crossers:
            assert cities[pair.a].lat_deg * cities[pair.b].lat_deg < 0

    def test_subset_of_matrix(self, tiny_scenario):
        crossers = cross_equatorial_pairs(tiny_scenario)
        all_pairs = {(p.a, p.b) for p in tiny_scenario.pairs}
        assert all((p.a, p.b) in all_pairs for p in crossers)


class TestPartialStarlink:
    def test_satellite_counts(self):
        assert partial_starlink(24).num_satellites == 24 * 22
        assert partial_starlink(72).num_satellites == 1584

    def test_full_matches_preset_geometry(self):
        from repro.orbits.presets import starlink

        partial = partial_starlink(72)
        np.testing.assert_allclose(
            partial.positions_ecef(0.0), starlink().positions_ecef(0.0)
        )

    def test_planes_evenly_spread(self):
        constellation = partial_starlink(24)
        _, _, raan, _ = constellation.shells[0].elements()
        unique = sorted(set(raan.tolist()))
        spacing = np.diff(unique)
        np.testing.assert_allclose(spacing, 15.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            partial_starlink(0)
        with pytest.raises(ValueError):
            partial_starlink(73)


class TestScaleRouting:
    def test_experiments_accept_explicit_scale(self):
        """Every registered experiment honours the scale argument."""
        from repro.experiments import all_experiments

        scale = ScenarioScale(
            name="probe",
            num_cities=40,
            num_pairs=10,
            relay_spacing_deg=4.0,
            num_snapshots=1,
        )
        # fig9 is pure geometry (cheapest): verify the plumbing.
        result = all_experiments()["fig9"](scale=scale)
        assert result.scale_name == "probe"
