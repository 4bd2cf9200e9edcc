"""Tests for path-level attenuation accounting (Section 6 mechanics)."""

import numpy as np
import pytest

from repro.atmosphere.attenuation import (
    path_link_attenuations_db,
    paths_worst_link_attenuation_db,
    worst_link_attenuation_db,
)
from tests.conftest import routed_node_paths


@pytest.fixture(scope="module")
def graph_and_paths(tiny_bp_graph, tiny_scenario):
    paths = routed_node_paths(tiny_bp_graph, tiny_scenario.pairs)
    routable = [p for p in paths if p is not None]
    assert routable, "tiny scenario should route at least one pair"
    return tiny_bp_graph, paths


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
        assert worst_link_attenuation_db(graph, path) == pytest.approx(
            max(l.attenuation_db for l in links)
        )


class TestBatchedAttenuation:
    def test_batch_matches_scalar(self, graph_and_paths):
        graph, paths = graph_and_paths
        batch = paths_worst_link_attenuation_db(graph, paths)
        for i, path in enumerate(paths):
            if path is None:
                assert np.isnan(batch[i])
            else:
                scalar = worst_link_attenuation_db(graph, path)
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
