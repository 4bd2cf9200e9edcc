"""End-to-end throughput evaluation on a snapshot (paper Section 5).

Besides the paper's model (per-link capacities only), the evaluator
supports two documented variations:

* an alternative **allocator** (equal-split) for the D6 ablation;
* a **per-satellite radio capacity cap**: the paper's filings talk about
  each satellite's up-down capacity serving multiple GTs, and one
  reading of the model bounds the satellite's aggregate radio
  throughput. The cap is implemented as a virtual link per satellite
  that every radio hop of a flow also traverses — a BP transit bounce
  (up + down at the same satellite region) therefore consumes double,
  exactly the physics the cap is meant to model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.flows.maxmin import MaxMinResult, max_min_fair_allocation
from repro.flows.routing import RoutedTraffic, route_traffic
from repro.obs import traced
from repro.flows.traffic import CityPair
from repro.network.graph import SnapshotGraph
from repro.network.links import LinkCapacities

__all__ = [
    "ThroughputResult",
    "evaluate_throughput",
]


def _with_satellite_cap(
    graph: SnapshotGraph,
    routing: RoutedTraffic,
    edge_caps: np.ndarray,
    cap_bps: float,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Append per-satellite virtual links to flows and capacities.

    Radio hops are the edge ids below the GT-satellite row count (the
    edge table lists those rows first, by satellite), and a row's
    satellite is the CSR block holding it; each sub-flow gains its
    radio hops' satellite links in hop order.
    """
    virtual_base = graph.num_edges
    capacities = np.concatenate([edge_caps, np.full(graph.num_sats, cap_bps)])
    start, gts, _ = graph.sat_rows
    flow_lists: list[np.ndarray] = []
    for ids in routing.flow_edge_lists():
        radio = ids[ids < len(gts)]
        if len(radio):
            sats = np.searchsorted(start, radio, "right") - 1
            ids = np.concatenate([ids, virtual_base + sats])
        flow_lists.append(ids)
    return flow_lists, capacities


@dataclass(frozen=True)
class ThroughputResult:
    """Aggregate throughput of one snapshot under max-min fair sharing."""

    routing: RoutedTraffic
    allocation: MaxMinResult
    capacities: LinkCapacities

    @property
    def aggregate_bps(self) -> float:
        return self.allocation.total_rate

    @property
    def aggregate_gbps(self) -> float:
        return self.aggregate_bps / 1e9


@traced("throughput_eval")
def evaluate_throughput(
    graph: SnapshotGraph,
    pairs: list[CityPair],
    k: int = 1,
    capacities: LinkCapacities | None = None,
    routing: RoutedTraffic | None = None,
    allocator: Callable[[list[np.ndarray], np.ndarray], MaxMinResult] | None = None,
    satellite_radio_cap_bps: float | None = None,
    edge_capacity_factors: np.ndarray | None = None,
) -> ThroughputResult:
    """Route ``pairs`` over ``k`` disjoint paths and allocate max-min rates.

    Pass a precomputed ``routing`` to skip the (capacity-independent)
    routing step — capacity sweeps like Fig. 5 re-allocate over the same
    paths many times. ``allocator`` swaps the rate-allocation scheme
    (default: max-min progressive filling). ``satellite_radio_cap_bps``
    bounds each satellite's aggregate radio throughput (see module
    docstring) — ``None`` reproduces the paper's per-link-only model.
    ``edge_capacity_factors`` multiplies per-edge capacities (the
    weather/MODCOD coupling produces these — see
    :func:`repro.atmosphere.attenuation.edge_weather_capacity_factors`);
    a factor of 0 marks the link down, and flows pinned to it get zero.
    """
    capacities = capacities or LinkCapacities()
    allocator = allocator or max_min_fair_allocation
    if routing is None:
        routing = route_traffic(graph, pairs, k)
    elif routing.graph is not graph:
        raise ValueError("precomputed routing belongs to a different graph")
    if not routing.subflows:
        allocation = MaxMinResult(
            rates=np.empty(0),
            link_loads=np.zeros(graph.num_edges),
            bottleneck_rounds=0,
        )
        return ThroughputResult(routing=routing, allocation=allocation, capacities=capacities)
    edge_caps = graph.edge_capacities(capacities)
    if edge_capacity_factors is not None:
        factors = np.asarray(edge_capacity_factors, dtype=float)
        if factors.shape != edge_caps.shape:
            raise ValueError("edge_capacity_factors must match the edge count")
        if np.any(factors < 0):
            raise ValueError("edge_capacity_factors must be non-negative")
        # Keep capacities strictly positive: a hard zero would make the
        # max-min instance degenerate; epsilon capacity starves the flow
        # to numerically-zero rate instead.
        edge_caps = np.maximum(edge_caps * factors, 1e-6)
    if satellite_radio_cap_bps is not None:
        if satellite_radio_cap_bps <= 0:
            raise ValueError("satellite_radio_cap_bps must be positive")
        flow_lists, edge_caps = _with_satellite_cap(
            graph, routing, edge_caps, satellite_radio_cap_bps
        )
    else:
        flow_lists = routing.flow_edge_lists()
    allocation = allocator(flow_lists, edge_caps)
    return ThroughputResult(routing=routing, allocation=allocation, capacities=capacities)
