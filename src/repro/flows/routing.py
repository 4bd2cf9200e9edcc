"""Route the traffic matrix over k edge-disjoint shortest paths.

Each city pair becomes up to ``k`` sub-flows, one per edge-disjoint
shortest path (paper Section 5). Sub-flows are independent entities in
the max-min allocation — because the paths are edge-disjoint, sub-flows
of the same pair never compete with each other.

Routing is *source-batched*: round 1 of the greedy disjoint scheme runs
on the pristine matrix for every pair, so one predecessor-producing
Dijkstra per unique source city serves every pair sharing that source
(exactly how the RTT pipeline batches). Only rounds 2..k — which search
a matrix with the pair's earlier paths deleted — fall back to per-pair
Dijkstra; at k = 1 no per-pair search runs at all. Edge ids and the CSR
slots to delete come from vectorized lookups cached on the graph
(:meth:`SnapshotGraph.edge_ids_for_pairs` /
:meth:`SnapshotGraph.edge_csr_positions`) instead of per-hop dict
probes.

Each per-pair round is *distance-bounded*: round j searches with
scipy's ``limit=`` set to ``_ROUND_SLACK`` times round j-1's length and
is rerun once without a limit when the target lies beyond it (counted
as ``routing.pair_retries``; a rerun that still misses means the pair
has run out of disjoint paths). The bound is exact. Edges are only
ever deleted, so round j is never shorter than round j-1; Dijkstra
settles nodes in distance order, so every node of the target's
shortest path lies within the bound and gets the same left-fold sum
as in an unbounded search. Nodes beyond the bound, and deleted
(``inf``) edges, are simply never pushed onto the heap — that is the
saving. Distances are therefore identical to
:func:`repro.network.paths.k_edge_disjoint_paths`; a predecessor could
only differ on bit-equal heap keys, which the differential tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csgraph

from repro.flows.traffic import CityPair, pair_index
from repro.integrity.guards import check_graph, check_routing, strict_enabled
from repro.network.graph import SnapshotGraph
from repro.network.paths import Path, extract_path
from repro.obs import incr, span, traced

__all__ = [
    "SubFlow",
    "RoutedTraffic",
    "route_traffic",
    "route_traffic_multi_k",
]

#: Sources per batched predecessor-Dijkstra call. Bounds the dense
#: (sources x nodes) distance/predecessor block a chunk materializes to
#: a few tens of MB even on the full ~65k-node graph.
_SOURCE_BATCH = 64

#: Bound on round j's search, as a multiple of round j-1's length. On
#: the 24 seed-42 ``tput-k4`` benchmark graphs (300 cities, 40 pairs,
#: 2-degree relays) the round-to-round length ratio has median 1.025,
#: p95 1.116, p99 1.22 and max 1.39. Per bounded search, slack 1.1 /
#: 1.15 / 1.2 / 1.25 measured 1.175 / 1.162 / 1.176 / 1.203 ms (2,878
#: rounds, best of 3, 2-vCPU Xeon), against 1.66 ms unbounded.
_ROUND_SLACK = 1.15


@dataclass(frozen=True)
class SubFlow:
    """One routed sub-flow: a pair index, its path, and graph edge ids."""

    pair_index: int
    path: Path
    edge_ids: np.ndarray


@dataclass(frozen=True)
class RoutedTraffic:
    """All sub-flows routed on one snapshot graph."""

    graph: SnapshotGraph
    subflows: list[SubFlow]
    unrouted_pairs: list[int]
    #: Bounded disjoint rounds that missed the target and were rerun
    #: without a bound (the ``routing.pair_retries`` counter, per k).
    retries: int = 0

    @property
    def num_subflows(self) -> int:
        return len(self.subflows)

    def flow_edge_lists(self) -> list[np.ndarray]:
        """Per-subflow edge-id arrays, the max-min allocator's input."""
        return [sf.edge_ids for sf in self.subflows]


def _path_edge_ids(graph: SnapshotGraph, path: Path) -> np.ndarray:
    nodes = np.asarray(path.nodes, dtype=np.int64)
    return graph.edge_ids_for_pairs(nodes[:-1], nodes[1:])


def _batch_edge_ids(graph: SnapshotGraph, paths: list[Path]) -> list[np.ndarray]:
    """Edge ids of many paths, resolved in one vectorized lookup."""
    if not paths:
        return []
    nodes = [np.asarray(p.nodes, dtype=np.int64) for p in paths]
    hops = graph.edge_ids_for_pairs(
        np.concatenate([n[:-1] for n in nodes]),
        np.concatenate([n[1:] for n in nodes]),
    )
    counts = np.array([len(n) - 1 for n in nodes])
    return np.split(hops, np.cumsum(counts)[:-1])


def _first_round_paths(graph: SnapshotGraph, index) -> "list[Path | None]":
    """Round-1 shortest path for every pair, batched by source city."""
    matrix = graph.matrix()
    paths: "list[Path | None]" = [None] * index.num_pairs
    source_nodes = graph.num_sats + index.source_cities
    target_nodes = graph.num_sats + index.targets
    for start in range(0, len(source_nodes), _SOURCE_BATCH):
        chunk = source_nodes[start : start + _SOURCE_BATCH]
        with span("dijkstra"):
            dist, pred = csgraph.dijkstra(
                matrix, directed=True, indices=chunk, return_predecessors=True
            )
        incr("routing.batched_dijkstras", len(chunk))
        if dist.ndim == 1:  # a one-source chunk comes back flat
            dist, pred = dist[None, :], pred[None, :]
        for row in range(len(chunk)):
            source = int(chunk[row])
            dist_row, pred_row = dist[row], pred[row]
            for pidx in index.pairs_for_source(start + row):
                target = int(target_nodes[pidx])
                nodes = extract_path(pred_row, source, target)
                if nodes is not None:
                    paths[pidx] = Path(
                        nodes=nodes, length_m=float(dist_row[target])
                    )
    return paths


def _pair_search(matrix, source: int, limit: float):
    """Distances and predecessors from one source, searched to ``limit``."""
    # csgraph.dijkstra directly, not the shortest_path wrapper: a
    # per-call span on a millisecond search is measurable overhead at
    # this call rate; the enclosing disjoint_rounds span carries the
    # aggregate timing. min_only gives the same dist/pred for one source
    # and measured 1.121 ms per bounded search against 1.130 ms for the
    # plain call (1.664 vs 1.681 ms unbounded) on the same 2,878
    # tput-k4 rounds, so it stays.
    dist, pred, _ = csgraph.dijkstra(
        matrix,
        directed=True,
        indices=[source],
        return_predecessors=True,
        min_only=True,
        limit=limit,
    )
    return dist, pred


def _extra_disjoint_paths(
    graph: SnapshotGraph,
    matrix,
    source: int,
    target: int,
    k: int,
    first: Path,
    first_ids: np.ndarray,
) -> "tuple[list[tuple[Path, np.ndarray]], int]":
    """Rounds 2..k of the greedy edge-disjoint scheme, round 1 given.

    The matrix is modified in place (each found path's edges deleted in
    both directions) and fully restored before returning, matching
    :func:`repro.network.paths.k_edge_disjoint_paths`. Each round's
    search is bounded by ``_ROUND_SLACK`` times the previous round's
    length and rerun once without a bound when the target lies beyond
    it (see the module docstring). Returns the paths and the number of
    rounds that needed that rerun.
    """
    found = [(first, first_ids)]
    touched: "list[tuple[np.ndarray, np.ndarray]]" = []
    searches = retries = 0
    try:
        positions = graph.edge_csr_positions(first_ids)
        matrix.data[positions] = np.inf
        touched.append((positions, first_ids))
        while len(found) < k:
            searches += 1
            dist, pred = _pair_search(
                matrix, source, found[-1][0].length_m * _ROUND_SLACK
            )
            if not np.isfinite(dist[target]):
                retries += 1
                dist, pred = _pair_search(matrix, source, np.inf)
            nodes = extract_path(pred, source, target)
            if nodes is None:
                break
            path = Path(nodes=nodes, length_m=float(dist[target]))
            ids = _path_edge_ids(graph, path)
            found.append((path, ids))
            positions = graph.edge_csr_positions(ids)
            matrix.data[positions] = np.inf
            touched.append((positions, ids))
    finally:
        for positions, ids in touched:
            # Both directed entries of an edge hold its distance.
            matrix.data[positions] = np.repeat(graph.edge_dist_m[ids], 2)
        if searches:
            incr("routing.pair_dijkstras", searches)
        if retries:
            incr("routing.pair_retries", retries)
    return found, retries


@traced("routing")
def route_traffic_multi_k(
    graph: SnapshotGraph,
    pairs: list[CityPair],
    ks,
) -> "dict[int, RoutedTraffic]":
    """Route every pair for several path counts, sharing round 1.

    The round-1 path of the greedy disjoint scheme is searched on the
    pristine matrix and therefore identical for every ``k`` — computing
    k = 1 and k = 4 together (as Fig. 4 does) pays for the batched
    source Dijkstras once. Returns ``{k: RoutedTraffic}`` with results
    identical to separate :func:`route_traffic` calls.
    """
    ks = tuple(dict.fromkeys(int(k) for k in ks))
    if not ks:
        raise ValueError("ks must name at least one path count")
    if min(ks) < 1:
        raise ValueError("k must be >= 1")
    strict = strict_enabled()
    if strict:
        check_graph(graph, source=f"graph[t={graph.time_s:g}s]")
    index = pair_index(pairs)
    # One bounds check for the whole pair list: endpoints are cities.
    source_nodes, target_nodes = index.gt_nodes(
        graph.num_sats, graph.stations.city_count
    )
    matrix = graph.matrix()

    with span("first_round"):
        first_paths = _first_round_paths(graph, index)
        routed_indices = [i for i, p in enumerate(first_paths) if p is not None]
        first_ids: "list[np.ndarray | None]" = [None] * index.num_pairs
        for pidx, ids in zip(
            routed_indices,
            _batch_edge_ids(graph, [first_paths[i] for i in routed_indices]),
        ):
            first_ids[pidx] = ids

    results: "dict[int, RoutedTraffic]" = {}
    for k in ks:
        subflows: list[SubFlow] = []
        unrouted: list[int] = []
        retries = 0
        with span("disjoint_rounds"):
            for pidx in range(index.num_pairs):
                first = first_paths[pidx]
                if first is None:
                    incr("routing.unrouted_pairs")
                    unrouted.append(pidx)
                    continue
                if k == 1:
                    routed = [(first, first_ids[pidx])]
                else:
                    routed, missed = _extra_disjoint_paths(
                        graph,
                        matrix,
                        int(source_nodes[pidx]),
                        int(target_nodes[pidx]),
                        k,
                        first,
                        first_ids[pidx],
                    )
                    retries += missed
                for path, ids in routed:
                    subflows.append(
                        SubFlow(pair_index=pidx, path=path, edge_ids=ids)
                    )
        results[k] = RoutedTraffic(
            graph=graph,
            subflows=subflows,
            unrouted_pairs=unrouted,
            retries=retries,
        )
        if strict:
            check_routing(graph, pairs, results[k], source=f"routing[k={k}]")
    return results


def route_traffic(
    graph: SnapshotGraph,
    pairs: list[CityPair],
    k: int = 1,
) -> RoutedTraffic:
    """Route every city pair over its k edge-disjoint shortest paths.

    City indices in ``pairs`` refer to the station table's city block
    (indices ``[0, city_count)``), which maps directly onto graph nodes.
    Pairs with no path at this snapshot are recorded in
    ``unrouted_pairs`` rather than silently dropped.
    """
    return route_traffic_multi_k(graph, pairs, (k,))[int(k)]
