"""Load-aware routing (the paper's Section 5 future-work conjecture).

The paper: "A routing scheme that minimizes the maximum utilization,
for example, can offer higher throughput, albeit at the cost of
increased latency. The exploration of superior routing schemes is left
to future work."

This module implements a practical congestion-aware scheme so that the
conjecture can be tested: pairs are routed sequentially (longest
geodesic first — the flows with the fewest alternatives pick first) on a
weight function that inflates each link's propagation distance by its
current load:

    w_e = dist_e * (1 + gamma * load_e / capacity_e)

where ``load_e`` counts one capacity-normalized unit per sub-flow
already assigned. ``gamma`` trades latency against load spreading:
gamma = 0 degenerates to shortest-path routing, large gamma approximates
min-max-utilization routing.
"""

from __future__ import annotations

import numpy as np

from repro.flows.routing import RoutedTraffic, SubFlow
from repro.flows.traffic import CityPair
from repro.network.graph import SnapshotGraph
from repro.network.links import LinkCapacities
from repro.network.paths import shortest_path

__all__ = ["route_load_aware"]


def route_load_aware(
    graph: SnapshotGraph,
    pairs: list[CityPair],
    capacities: LinkCapacities | None = None,
    gamma: float = 3.0,
    paths_per_pair: int = 1,
) -> RoutedTraffic:
    """Sequential congestion-aware routing over the snapshot graph.

    Returns a :class:`RoutedTraffic` compatible with
    :func:`repro.flows.throughput.evaluate_throughput` (pass it as the
    precomputed ``routing``). ``paths_per_pair`` > 1 assigns that many
    sub-flows per pair, each routed with the loads left by the previous
    one (they naturally spread; no disjointness is enforced).
    """
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    if paths_per_pair < 1:
        raise ValueError("paths_per_pair must be >= 1")
    capacities = capacities or LinkCapacities()
    edge_caps = graph.edge_capacities(capacities)

    base = graph.matrix().tocsr(copy=True)
    base_dist = base.data.copy()
    # The edge id of each CSR entry, for load and capacity lookups.
    position_edge = graph.entry_edge_ids()

    load_units = np.zeros(graph.num_edges)
    reference_cap = capacities.gt_sat_bps

    order = sorted(range(len(pairs)), key=lambda i: -pairs[i].distance_m)
    subflows: list[SubFlow] = []
    unrouted: list[int] = []
    for pair_idx in order:
        pair = pairs[pair_idx]
        source = graph.gt_node(pair.a)
        target = graph.gt_node(pair.b)
        routed_any = False
        for _ in range(paths_per_pair):
            utilization = load_units[position_edge] * (
                reference_cap / edge_caps[position_edge]
            )
            base.data = base_dist * (1.0 + gamma * utilization)
            path = shortest_path(base, source, target)
            if path is None:
                break
            routed_any = True
            nodes = np.asarray(path.nodes, dtype=np.int64)
            edge_ids = graph.edge_ids_for_pairs(nodes[:-1], nodes[1:])
            # Recompute the true propagation length of the chosen path
            # (the search ran on inflated weights).
            true_length = float(np.sum(graph.edge_dist_m[edge_ids]))
            subflows.append(
                SubFlow(
                    pair_index=pair_idx,
                    path=type(path)(nodes=path.nodes, length_m=true_length),
                    edge_ids=edge_ids,
                )
            )
            load_units[edge_ids] += 1.0
        if not routed_any:
            unrouted.append(pair_idx)
    return RoutedTraffic(graph=graph, subflows=subflows, unrouted_pairs=unrouted)
