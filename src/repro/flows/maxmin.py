"""Max-min fair rate allocation over fixed routed flows.

This is our from-scratch replacement for the routed-flow core of
``floodns`` [28], implementing exactly the algorithm the paper describes
(Section 5, citing Nace et al.): *progressive filling* — all unfrozen
flows grow at the same rate; the first link to saturate freezes the flows
crossing it at their current rate; repeat until every flow is frozen.

Properties (all covered by property-based tests):

* feasibility — per-link loads never exceed capacities;
* saturation/Pareto-optimality — every flow crosses at least one
  saturated link, so no flow can be raised without lowering another;
* max-min fairness — a flow's rate can only be below another's if it
  shares a bottleneck with flows of no higher rate.

The implementation is vectorized over links: each round computes the
tightest link in O(E) numpy work, and the number of rounds is bounded by
the number of distinct bottleneck links.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.context import current
from repro.integrity.guards import check_allocation
from repro.obs import incr, traced

__all__ = ["MaxMinResult", "max_min_fair_allocation"]

#: Relative numeric slack when deciding a link has saturated.
_EPS = 1e-12


@dataclass(frozen=True)
class MaxMinResult:
    """Outcome of a max-min allocation."""

    rates: np.ndarray  # (n_flows,) bits/s
    link_loads: np.ndarray  # (n_edges,) bits/s
    bottleneck_rounds: int

    @property
    def total_rate(self) -> float:
        """Aggregate throughput across all flows, bits/s."""
        return float(np.sum(self.rates))


@traced("allocation")
def max_min_fair_allocation(
    flow_edges: list[np.ndarray],
    capacities: np.ndarray,
) -> MaxMinResult:
    """Max-min fair rates for flows pinned to fixed paths.

    ``flow_edges[i]`` lists the edge ids flow ``i`` traverses (a flow may
    not be empty — a flow with no links has no bottleneck and no
    meaningful rate). ``capacities`` gives per-edge capacity in bits/s.
    """
    n_flows = len(flow_edges)
    capacities = np.asarray(capacities, dtype=float)
    n_edges = len(capacities)
    if n_flows == 0:
        return MaxMinResult(
            rates=np.empty(0), link_loads=np.zeros(n_edges), bottleneck_rounds=0
        )
    flow_lens = np.array([len(edges) for edges in flow_edges], dtype=np.int64)
    if np.any(flow_lens == 0):
        bad = int(np.flatnonzero(flow_lens == 0)[0])
        raise ValueError(f"flow {bad} traverses no links")

    # Flow -> edges incidence in CSR style (entries in flow order), plus
    # the edge-sorted view used to find the flows on a saturated link.
    flow_ids = np.repeat(np.arange(n_flows, dtype=np.int64), flow_lens)
    flow_ptr = np.concatenate([[0], np.cumsum(flow_lens)])
    edge_ids = np.concatenate([np.asarray(e, dtype=np.int64) for e in flow_edges])
    if len(edge_ids) and (edge_ids.min() < 0 or edge_ids.max() >= n_edges):
        raise ValueError("flow references an edge id outside the capacity table")
    order = np.argsort(edge_ids, kind="stable")
    sorted_edges = edge_ids[order]
    sorted_flows = flow_ids[order]

    active = np.ones(n_flows, dtype=bool)
    rates = np.zeros(n_flows)
    remaining = capacities.astype(float).copy()
    # Active flows per link; every active rate grows by the increment.
    counts = np.bincount(edge_ids, minlength=n_edges).astype(float)

    rounds = 0
    saturation_slack = _EPS * capacities
    headroom = np.empty(n_edges)
    scratch = np.empty(n_edges)
    while active.any():
        used = counts > _EPS
        if not used.any():
            break  # Defensive: active flows but no loaded links.
        np.copyto(headroom, np.inf)
        with np.errstate(divide="ignore"):
            np.divide(remaining, np.maximum(counts, _EPS), out=headroom, where=used)
        increment = float(headroom.min())
        if not np.isfinite(increment):
            break
        increment = max(increment, 0.0)

        rates[active] += increment
        np.multiply(counts, increment, out=scratch)
        np.subtract(remaining, scratch, out=remaining)
        rounds += 1

        saturated = used & (remaining <= saturation_slack)
        if not saturated.any():
            # Numeric guard: force-freeze the tightest link so the loop
            # always progresses even under pathological rounding.
            saturated = used & (headroom <= increment * (1.0 + 1e-9))
        # Freeze, vectorized: gather the (still-active) flows crossing
        # any saturated link, then retire them from every link they
        # traverse with one bincount.
        candidates = sorted_flows[saturated[sorted_edges]]
        frozen = np.unique(candidates[active[candidates]])
        if frozen.size:
            active[frozen] = False
            lens = flow_lens[frozen]
            offsets = np.arange(int(lens.sum())) - np.repeat(
                np.cumsum(lens) - lens, lens
            )
            positions = np.repeat(flow_ptr[frozen], lens) + offsets
            counts -= np.bincount(edge_ids[positions], minlength=n_edges)

    loads = capacities - remaining
    incr("maxmin.bottleneck_rounds", rounds)
    if current().strict:
        # Feasibility is the allocator's contract; under strict mode we
        # re-assert it on every real allocation, not just in the tests.
        check_allocation(rates, loads, capacities, source="maxmin")
    return MaxMinResult(rates=rates, link_loads=loads, bottleneck_rounds=rounds)
