"""Unit tests for shortest paths and k edge-disjoint paths."""

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import csgraph

from repro.network.paths import (
    Path,
    extract_path,
    k_edge_disjoint_paths,
    shortest_path,
)


def grid_graph(n=4, weight=1.0):
    """n x n grid graph as a symmetric CSR matrix."""
    size = n * n
    rows, cols, data = [], [], []
    for i in range(n):
        for j in range(n):
            node = i * n + j
            if j + 1 < n:
                rows += [node, node + 1]
                cols += [node + 1, node]
                data += [weight, weight]
            if i + 1 < n:
                rows += [node, node + n]
                cols += [node + n, node]
                data += [weight, weight]
    return sparse.csr_matrix((data, (rows, cols)), shape=(size, size))


def diamond_graph():
    """0 -> {1, 2} -> 3 with two fully disjoint two-hop routes."""
    rows = [0, 1, 0, 2, 1, 3, 2, 3]
    cols = [1, 0, 2, 0, 3, 1, 3, 2]
    data = [1.0] * 8
    return sparse.csr_matrix((data, (rows, cols)), shape=(4, 4))


class TestShortestPath:
    def test_grid_corner_to_corner(self):
        matrix = grid_graph(4)
        path = shortest_path(matrix, 0, 15)
        assert path.length_m == pytest.approx(6.0)
        assert path.nodes[0] == 0
        assert path.nodes[-1] == 15
        assert path.hops == 6

    def test_same_node(self):
        matrix = grid_graph(3)
        path = shortest_path(matrix, 4, 4)
        assert path.nodes == (4,)
        assert path.length_m == 0.0
        assert path.hops == 0

    def test_disconnected_returns_none(self):
        matrix = sparse.csr_matrix((4, 4))
        assert shortest_path(matrix, 0, 3) is None

    def test_path_edges_exist_in_graph(self):
        matrix = grid_graph(5)
        path = shortest_path(matrix, 0, 24)
        for u, v in path.edge_pairs():
            assert matrix[u, v] > 0

    def test_respects_weights(self):
        # Heavier direct edge loses to a lighter two-hop route.
        rows = [0, 1, 0, 2, 2, 1]
        cols = [1, 0, 2, 0, 1, 2]
        data = [10.0, 10.0, 1.0, 1.0, 1.0, 1.0]
        matrix = sparse.csr_matrix((data, (rows, cols)), shape=(3, 3))
        path = shortest_path(matrix, 0, 1)
        assert path.nodes == (0, 2, 1)
        assert path.length_m == pytest.approx(2.0)

    def test_distances_to_all(self):
        matrix = grid_graph(3)
        assert shortest_path(matrix, 0, 8).length_m == pytest.approx(4.0)
        assert shortest_path(matrix, 0, 0).length_m == 0.0


def _predecessors(matrix, source):
    """scipy's predecessor row from ``source``, as routing reads it."""
    _, pred = csgraph.dijkstra(
        matrix, directed=True, indices=source, return_predecessors=True
    )
    return pred


class TestExtractPath:
    def test_extract_path_consistency(self):
        matrix = grid_graph(3)
        nodes = extract_path(_predecessors(matrix, 0), 0, 8)
        assert len(nodes) - 1 == 4
        assert nodes[0] == 0 and nodes[-1] == 8

    def test_extract_unreachable(self):
        matrix = sparse.csr_matrix((3, 3))
        assert extract_path(_predecessors(matrix, 0), 0, 2) is None

    def test_extract_source(self):
        matrix = grid_graph(3)
        assert extract_path(_predecessors(matrix, 0), 0, 0) == (0,)


class TestKEdgeDisjoint:
    def test_diamond_two_disjoint_paths(self):
        matrix = diamond_graph()
        paths = k_edge_disjoint_paths(matrix, 0, 3, 2)
        assert len(paths) == 2
        edges_used = set()
        for path in paths:
            for u, v in path.edge_pairs():
                edge = (min(u, v), max(u, v))
                assert edge not in edges_used
                edges_used.add(edge)

    def test_exhausts_disjoint_routes(self):
        matrix = diamond_graph()
        paths = k_edge_disjoint_paths(matrix, 0, 3, 5)
        assert len(paths) == 2  # Only two exist.

    def test_paths_sorted_by_length(self):
        matrix = grid_graph(4)
        paths = k_edge_disjoint_paths(matrix, 0, 15, 3)
        lengths = [p.length_m for p in paths]
        assert lengths == sorted(lengths)

    def test_matrix_restored_after_search(self):
        matrix = grid_graph(4)
        before = matrix.data.copy()
        k_edge_disjoint_paths(matrix, 0, 15, 4)
        np.testing.assert_array_equal(matrix.data, before)

    def test_matrix_restored_even_when_k_exceeds_paths(self):
        matrix = diamond_graph()
        before = matrix.data.copy()
        k_edge_disjoint_paths(matrix, 0, 3, 10)
        np.testing.assert_array_equal(matrix.data, before)

    def test_k_one_equals_shortest_path(self):
        matrix = grid_graph(4)
        single = shortest_path(matrix, 0, 15)
        multi = k_edge_disjoint_paths(matrix, 0, 15, 1)
        assert len(multi) == 1
        assert multi[0].length_m == pytest.approx(single.length_m)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            k_edge_disjoint_paths(grid_graph(3), 0, 8, 0)

    def test_disconnected_yields_empty(self):
        matrix = sparse.csr_matrix((4, 4))
        assert k_edge_disjoint_paths(matrix, 0, 3, 3) == []

    def test_on_real_snapshot_graph(self, tiny_hybrid_graph, tiny_scenario):
        graph = tiny_hybrid_graph
        pair = tiny_scenario.pairs[0]
        matrix = graph.matrix()
        paths = k_edge_disjoint_paths(
            matrix, graph.gt_node(pair.a), graph.gt_node(pair.b), 4
        )
        assert len(paths) >= 2
        # Disjointness on the real graph too.
        seen = set()
        for path in paths:
            for u, v in path.edge_pairs():
                edge = (min(u, v), max(u, v))
                assert edge not in seen
                seen.add(edge)


class TestPathDataclass:
    def test_edge_pairs(self):
        path = Path(nodes=(1, 2, 3), length_m=10.0)
        assert path.edge_pairs() == [(1, 2), (2, 3)]

    def test_hops(self):
        assert Path(nodes=(5,), length_m=0.0).hops == 0
        assert Path(nodes=(1, 2, 3, 4), length_m=3.0).hops == 3
