"""Shortest paths and k edge-disjoint shortest paths.

The paper routes every city pair over its shortest path (latency study,
Section 4) or its k edge-disjoint shortest paths (throughput study,
Section 5, k = 1 and 4). We use scipy's C Dijkstra on the snapshot
graph's CSR matrix; edge-disjoint paths come from the standard iterative
scheme — find the shortest path, delete its edges, repeat — which is the
model floodns-based setups use.

These are the per-pair references: a whole traffic matrix is routed by
:func:`repro.flows.routing.route_traffic`, which batches round 1 by
source city and is pinned to :func:`k_edge_disjoint_paths` by
differential tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from repro.obs import span

__all__ = [
    "Path",
    "shortest_path",
    "extract_path",
    "k_edge_disjoint_paths",
    "k_node_disjoint_paths",
]


@dataclass(frozen=True)
class Path:
    """A node path with its total metric length (metres on our graphs)."""

    nodes: tuple[int, ...]
    length_m: float

    @property
    def hops(self) -> int:
        return len(self.nodes) - 1

    def edge_pairs(self) -> list[tuple[int, int]]:
        """Consecutive ``(u, v)`` node pairs along the path."""
        return list(zip(self.nodes[:-1], self.nodes[1:]))


def extract_path(pred: np.ndarray, source: int, target: int) -> tuple[int, ...] | None:
    """Rebuild the node path from a predecessor array, or ``None``."""
    if target == source:
        return (source,)
    if pred[target] < 0:
        return None
    nodes = [target]
    node = target
    while node != source:
        node = int(pred[node])
        if node < 0 or len(nodes) > len(pred):
            return None  # Corrupt predecessor chain; treat as unreachable.
        nodes.append(node)
    nodes.reverse()
    return tuple(nodes)


def shortest_path(
    matrix: sparse.csr_matrix, source: int, target: int
) -> Path | None:
    """Single-pair shortest path, or ``None`` when disconnected."""
    with span("dijkstra"):
        dist, pred = csgraph.dijkstra(
            matrix, directed=True, indices=source, return_predecessors=True
        )
    nodes = extract_path(pred, source, target)
    if nodes is None:
        return None
    return Path(nodes=nodes, length_m=float(dist[target]))


def _edge_data_positions(
    matrix: sparse.csr_matrix, u: int, v: int
) -> list[int]:
    """Positions in ``matrix.data`` holding entry (u, v).

    CSR column indices are sorted within each row (scipy guarantees this
    after construction), so a binary search finds the slot.
    """
    start, end = matrix.indptr[u], matrix.indptr[u + 1]
    columns = matrix.indices[start:end]
    pos = int(np.searchsorted(columns, v))
    if pos < len(columns) and columns[pos] == v:
        return [start + pos]
    return []


def k_edge_disjoint_paths(
    matrix: sparse.csr_matrix, source: int, target: int, k: int
) -> list[Path]:
    """Up to ``k`` mutually edge-disjoint shortest paths.

    Greedy-iterative: take the current shortest path, remove its edges
    (both directions — the graph is undirected), repeat. Fewer than ``k``
    paths are returned when the graph runs out of disjoint routes. The
    input matrix is modified in place during the search and fully
    restored before returning.

    This is the routing model the paper evaluates; it is *not* a max-flow
    decomposition — successive paths get strictly longer, matching how
    multipath routing would actually be deployed (and matching floodns
    usage in the paper's experiments).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    paths: list[Path] = []
    touched_positions: list[int] = []
    touched_values: list[float] = []
    try:
        for _ in range(k):
            path = shortest_path(matrix, source, target)
            if path is None:
                break
            paths.append(path)
            for u, v in path.edge_pairs():
                for a, b in ((u, v), (v, u)):
                    for pos in _edge_data_positions(matrix, a, b):
                        touched_positions.append(pos)
                        touched_values.append(float(matrix.data[pos]))
                        matrix.data[pos] = np.inf
    finally:
        for pos, value in zip(touched_positions, touched_values):
            matrix.data[pos] = value
    return paths


def _remove_node(matrix: sparse.csr_matrix, node: int, touched_positions, touched_values):
    """Disable all edges incident to ``node`` in place (both directions)."""
    start, end = matrix.indptr[node], matrix.indptr[node + 1]
    for pos in range(start, end):
        neighbour = int(matrix.indices[pos])
        if np.isfinite(matrix.data[pos]):
            touched_positions.append(pos)
            touched_values.append(float(matrix.data[pos]))
            matrix.data[pos] = np.inf
        for back in _edge_data_positions(matrix, neighbour, node):
            if np.isfinite(matrix.data[back]):
                touched_positions.append(back)
                touched_values.append(float(matrix.data[back]))
                matrix.data[back] = np.inf


def k_node_disjoint_paths(
    matrix: sparse.csr_matrix, source: int, target: int, k: int
) -> list[Path]:
    """Up to ``k`` paths sharing no *intermediate* nodes (D3 ablation).

    Stricter than edge-disjointness: after each shortest path, every
    intermediate node (all its incident edges) is removed. Node-disjoint
    paths cannot even share a satellite, which matters when the resource
    under contention is the satellite itself rather than a link. The
    matrix is restored before returning.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    paths: list[Path] = []
    touched_positions: list[int] = []
    touched_values: list[float] = []
    try:
        for _ in range(k):
            path = shortest_path(matrix, source, target)
            if path is None:
                break
            paths.append(path)
            for node in path.nodes[1:-1]:
                _remove_node(matrix, node, touched_positions, touched_values)
            if len(path.nodes) == 2:
                # Direct edge: remove it explicitly (no intermediates).
                for a, b in ((source, target), (target, source)):
                    for pos in _edge_data_positions(matrix, a, b):
                        if np.isfinite(matrix.data[pos]):
                            touched_positions.append(pos)
                            touched_values.append(float(matrix.data[pos]))
                            matrix.data[pos] = np.inf
    finally:
        for pos, value in zip(touched_positions, touched_values):
            matrix.data[pos] = value
    return paths
