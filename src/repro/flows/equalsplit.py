"""Equal-split allocation: the naive baseline to max-min fairness.

Every link divides its capacity equally among the flows crossing it; a
flow then runs at the minimum of its per-link shares. Unlike progressive
filling this is *not* work-conserving — capacity reserved for a flow
that is bottlenecked elsewhere goes unused — which is exactly why the
DESIGN.md D6 ablation compares the two: it quantifies how much of the
reported throughput comes from the allocator rather than the topology.
"""

from __future__ import annotations

import numpy as np

from repro.flows.maxmin import MaxMinResult
from repro.obs import traced

__all__ = ["equal_split_allocation"]


@traced("allocation")
def equal_split_allocation(
    flow_edges: list[np.ndarray],
    capacities: np.ndarray,
) -> MaxMinResult:
    """Equal-share rates for flows pinned to fixed paths.

    Returns the same result type as
    :func:`repro.flows.maxmin.max_min_fair_allocation` so callers can
    swap allocators freely.
    """
    capacities = np.asarray(capacities, dtype=float)
    n_edges = len(capacities)
    n_flows = len(flow_edges)
    if n_flows == 0:
        return MaxMinResult(
            rates=np.empty(0), link_loads=np.zeros(n_edges), bottleneck_rounds=0
        )
    flow_counts = np.zeros(n_edges)
    for i, edges in enumerate(flow_edges):
        edges = np.asarray(edges, dtype=np.int64)
        if len(edges) == 0:
            raise ValueError(f"flow {i} traverses no links")
        if edges.min() < 0 or edges.max() >= n_edges:
            raise ValueError("flow references an edge id outside the capacity table")
        np.add.at(flow_counts, edges, 1.0)

    share = np.full(n_edges, np.inf)
    used = flow_counts > 0
    share[used] = capacities[used] / flow_counts[used]

    rates = np.empty(n_flows)
    loads = np.zeros(n_edges)
    for i, edges in enumerate(flow_edges):
        edges = np.asarray(edges, dtype=np.int64)
        rates[i] = float(share[edges].min())
        np.add.at(loads, edges, rates[i])
    return MaxMinResult(rates=rates, link_loads=loads, bottleneck_rounds=1)
