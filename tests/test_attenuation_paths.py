"""Tests for radio-hop attenuation accounting (Section 6 mechanics)."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from repro.atmosphere.attenuation import (
    edge_weather_capacity_factors,
    path_link_attenuations_db,
    paths_worst_link_attenuation_db,
)
from repro.network.graph import _KIND_FIBER, ConnectivityMode
from repro.network.modcod import weather_capacity_factor
from repro.obs import observe
from tests import reference_weather
from tests.conftest import routed_node_paths


@pytest.fixture(scope="module")
def graph_and_paths(tiny_bp_graph, tiny_scenario):
    paths = routed_node_paths(tiny_bp_graph, tiny_scenario.pairs)
    routable = [p for p in paths if p is not None]
    assert routable, "tiny scenario should route at least one pair"
    return tiny_bp_graph, paths


@pytest.fixture(scope="module")
def cities_only_isl_graph(tiny_scenario):
    """The ISL network fig6 scores: only city GTs, no relays or aircraft."""
    scenario = replace(tiny_scenario, use_relays=False, use_aircraft=False)
    return scenario.graph_at(0.0, ConnectivityMode.ISL_ONLY)


@pytest.fixture(scope="module", params=["bp", "hybrid", "isl-cities-only"])
def routed_graph(
    request, tiny_bp_graph, tiny_hybrid_graph, cities_only_isl_graph, tiny_scenario
):
    graph = {
        "bp": tiny_bp_graph,
        "hybrid": tiny_hybrid_graph,
        "isl-cities-only": cities_only_isl_graph,
    }[request.param]
    return graph, routed_node_paths(graph, tiny_scenario.pairs)


class TestPathLinkAttenuations:
    def test_alternating_up_down(self, graph_and_paths):
        graph, paths = graph_and_paths
        path = next(p for p in paths if p is not None)
        links = path_link_attenuations_db(graph, path)
        # BP path: strictly alternating GT-sat hops, starting with an
        # up-link and ending with a down-link.
        assert links[0].is_uplink
        assert not links[-1].is_uplink
        for first, second in zip(links[:-1], links[1:]):
            assert first.is_uplink != second.is_uplink

    def test_frequencies_by_direction(self, graph_and_paths):
        graph, paths = graph_and_paths
        path = next(p for p in paths if p is not None)
        for link in path_link_attenuations_db(graph, path):
            assert link.freq_ghz == (14.25 if link.is_uplink else 11.7)

    def test_radio_hop_count_matches_path(self, graph_and_paths):
        graph, paths = graph_and_paths
        path = next(p for p in paths if p is not None)
        links = path_link_attenuations_db(graph, path)
        gts_on_path = sum(1 for n in path if not graph.is_sat_node(n))
        # Each GT contributes 2 radio hops except the endpoints (1 each).
        assert len(links) == 2 * gts_on_path - 2

    def test_elevations_above_minimum(self, graph_and_paths):
        graph, paths = graph_and_paths
        path = next(p for p in paths if p is not None)
        for link in path_link_attenuations_db(graph, path):
            assert link.elevation_deg >= 24.0

    def test_endpoints_only_keeps_two(self, graph_and_paths):
        graph, paths = graph_and_paths
        path = max((p for p in paths if p is not None), key=len)
        all_links = path_link_attenuations_db(graph, path)
        endpoint_links = path_link_attenuations_db(graph, path, endpoints_only=True)
        if len(all_links) > 2:
            assert len(endpoint_links) == 2
            assert endpoint_links[0].attenuation_db == all_links[0].attenuation_db
            assert endpoint_links[-1].attenuation_db == all_links[-1].attenuation_db

    def test_worst_link_is_max(self, graph_and_paths):
        graph, paths = graph_and_paths
        path = next(p for p in paths if p is not None)
        links = path_link_attenuations_db(graph, path)
        (worst,) = paths_worst_link_attenuation_db(graph, [path])
        assert worst == max(link.attenuation_db for link in links)


class TestBatchedAttenuation:
    def test_batch_matches_scalar(self, graph_and_paths):
        graph, paths = graph_and_paths
        batch = paths_worst_link_attenuation_db(graph, paths)
        for i, path in enumerate(paths):
            if path is None:
                assert np.isnan(batch[i])
            else:
                scalar = reference_weather.worst_link_attenuation_db(graph, path)
                assert batch[i] == pytest.approx(scalar, rel=1e-9)

    def test_endpoints_only_never_exceeds_full(self, graph_and_paths):
        graph, paths = graph_and_paths
        full = paths_worst_link_attenuation_db(graph, paths)
        endpoints = paths_worst_link_attenuation_db(graph, paths, endpoints_only=True)
        ok = np.isfinite(full) & np.isfinite(endpoints)
        assert np.all(endpoints[ok] <= full[ok] + 1e-9)

    def test_empty_input(self, tiny_bp_graph):
        result = paths_worst_link_attenuation_db(tiny_bp_graph, [])
        assert len(result) == 0

    def test_all_none(self, tiny_bp_graph):
        result = paths_worst_link_attenuation_db(tiny_bp_graph, [None, None])
        assert np.all(np.isnan(result))

    def test_deeper_exceedance_raises_attenuation(self, graph_and_paths):
        graph, paths = graph_and_paths
        mild = paths_worst_link_attenuation_db(graph, paths, exceedance_pct=1.0)
        severe = paths_worst_link_attenuation_db(graph, paths, exceedance_pct=0.1)
        ok = np.isfinite(mild) & np.isfinite(severe)
        assert np.all(severe[ok] >= mild[ok])


@pytest.mark.parametrize("endpoints_only", [False, True])
@pytest.mark.parametrize("exceedance_pct", [0.5, 1.0])
class TestReferenceEquivalence:
    """The vectorized scorer against the scalar per-hop loop."""

    def test_per_hop_values(self, routed_graph, exceedance_pct, endpoints_only):
        graph, paths = routed_graph
        for path in filter(None, paths):
            links = path_link_attenuations_db(graph, path, exceedance_pct, endpoints_only)
            expected = reference_weather.path_link_attenuations_db(
                graph, path, exceedance_pct, endpoints_only
            )
            assert len(links) == len(expected)
            for link, ref in zip(links, expected):
                assert (link.gt_node, link.sat_node, link.is_uplink, link.freq_ghz) == (
                    ref.gt_node,
                    ref.sat_node,
                    ref.is_uplink,
                    ref.freq_ghz,
                )
                assert [
                    link.gt_lat_deg,
                    link.gt_lon_deg,
                    link.elevation_deg,
                    link.attenuation_db,
                ] == pytest.approx(
                    [ref.gt_lat_deg, ref.gt_lon_deg, ref.elevation_deg, ref.attenuation_db],
                    rel=1e-12,
                )

    def test_worst_link_values(self, routed_graph, exceedance_pct, endpoints_only):
        graph, paths = routed_graph
        worst = paths_worst_link_attenuation_db(graph, paths, exceedance_pct, endpoints_only)
        expected = [
            reference_weather.worst_link_attenuation_db(
                graph, path, exceedance_pct, endpoints_only
            )
            if path is not None
            else np.nan
            for path in paths
        ]
        assert worst == pytest.approx(expected, rel=1e-12, nan_ok=True)


@pytest.mark.parametrize("exceedance_pct", [0.5, 1.0])
class TestEdgeWeatherFactors:
    def test_radio_edges_of_routed_paths(self, routed_graph, exceedance_pct):
        """Every radio edge a routed path uses, scored hop by hop."""
        graph, paths = routed_graph
        factors = edge_weather_capacity_factors(graph, exceedance_pct)
        hops = {
            (min(u, v), max(u, v))
            for path in filter(None, paths)
            for u, v in zip(path[:-1], path[1:])
            if graph.is_sat_node(u) != graph.is_sat_node(v)
        }
        sats, gt_nodes = np.array(sorted(hops)).T
        edge_ids = graph.edge_ids_for_pairs(sats, gt_nodes)
        expected = [
            reference_weather.edge_weather_capacity_factor(graph, s, g, exceedance_pct)
            for s, g in zip(sats, gt_nodes)
        ]
        assert factors[edge_ids] == pytest.approx(expected, rel=1e-12)

    def test_every_radio_edge_of_cities_only_graph(self, cities_only_isl_graph, exceedance_pct):
        graph = cities_only_isl_graph
        factors = edge_weather_capacity_factors(graph, exceedance_pct)
        radio = graph.edge_kind == 0
        expected = [
            reference_weather.edge_weather_capacity_factor(graph, s, g, exceedance_pct)
            for s, g in graph.edges[radio]
        ]
        assert factors[radio] == pytest.approx(expected, rel=1e-12)
        assert np.all(factors[~radio] == 1.0)

    def test_every_radio_edge_is_worse_direction(self, routed_graph, exceedance_pct):
        """Each radio edge's factor is the worse of its two one-hop paths."""
        graph, _ = routed_graph
        factors = edge_weather_capacity_factors(graph, exceedance_pct)
        radio = graph.edge_kind == 0
        sats, gt_nodes = graph.edges[radio].T
        up = paths_worst_link_attenuation_db(
            graph, list(zip(gt_nodes, sats)), exceedance_pct
        )
        down = paths_worst_link_attenuation_db(
            graph, list(zip(sats, gt_nodes)), exceedance_pct
        )
        assert np.array_equal(factors[radio], weather_capacity_factor(np.maximum(up, down)))
        assert np.all(factors[~radio] == 1.0)

    def test_builds_no_edge_table(self, tiny_scenario, exceedance_pct):
        graph = tiny_scenario.graph_at(0.0, ConnectivityMode.HYBRID)
        assert "edges" not in vars(graph)
        with observe() as registry:
            factors = edge_weather_capacity_factors(graph, exceedance_pct)
        assert registry.snapshot()["counters"].get("engine.edge_tables", 0) == 0
        assert factors.shape == (graph.num_edges,)


class TestEndpointsOnlyMeaning:
    """``endpoints_only`` keeps the first and last *radio* hop."""

    @pytest.fixture(scope="class")
    def fiber_path(self, tiny_scenario):
        """A hybrid fiber-graph path that starts and ends on fiber.

        ``a -fiber- b -radio- s1 -radio- g -radio- s2 -radio- c -fiber- d``:
        four radio hops between two city-city fiber edges.
        """
        graph = tiny_scenario.with_assembly(fiber_max_km=1500.0).graph_at(
            0.0, ConnectivityMode.HYBRID
        )
        block, _, kind = graph.isl_fiber_rows
        fiber = block[kind == _KIND_FIBER]
        fiber = np.concatenate([fiber, fiber[:, ::-1]])  # Both directions.
        start, gts, _ = graph.sat_rows
        sats = np.repeat(np.arange(graph.num_sats), np.diff(start))
        gt_nodes = gts + graph.num_sats
        sat_gts = {s: set(gt_nodes[sats == s].tolist()) for s in range(graph.num_sats)}
        gt_sats = {g: set(sats[gt_nodes == g].tolist()) for g in np.unique(fiber)}
        for a, b in fiber:
            for c, d in fiber:
                if {a, b} & {c, d}:
                    continue
                for s1, s2 in itertools.product(sorted(gt_sats[b]), sorted(gt_sats[c])):
                    middle = (sat_gts[s1] & sat_gts[s2]) - {a, b, c, d}
                    if s1 != s2 and middle:
                        path = (a, b, s1, min(middle), s2, c, d)
                        return graph, tuple(int(n) for n in path)
        pytest.fail("tiny fiber graph has no fiber-radio-fiber path")

    def test_per_hop_entry_point(self, fiber_path):
        graph, path = fiber_path
        _, b, s1, _, s2, c, _ = path
        links = path_link_attenuations_db(graph, path, endpoints_only=True)
        assert [(l.gt_node, l.sat_node, l.is_uplink) for l in links] == [
            (b, s1, True),
            (c, s2, False),
        ]
        assert len(path_link_attenuations_db(graph, path)) == 4

    def test_batched_entry_point(self, fiber_path):
        graph, path = fiber_path
        (worst,) = paths_worst_link_attenuation_db(graph, [path], endpoints_only=True)
        expected = reference_weather.path_link_attenuations_db(
            graph, path, endpoints_only=True
        )
        assert worst == pytest.approx(max(l.attenuation_db for l in expected), rel=1e-12)
