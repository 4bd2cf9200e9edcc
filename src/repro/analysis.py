"""Post-hoc analysis utilities: path stretch, hop mixes, link utilization.

These helpers answer the questions a network analyst asks *after* a
simulation: how far from the geodesic do paths stray, what do they hop
through, and where does the capacity go. They are consumed by examples
and ablation benchmarks, and exercised directly in tests.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.flows.throughput import ThroughputResult
from repro.ground.stations import StationKind
from repro.network.graph import SnapshotGraph
from repro.network.links import LinkKind

__all__ = [
    "path_stretch",
    "PathComposition",
    "path_composition",
    "LinkUtilization",
    "link_utilization",
    "rtt_jumps_ms",
    "corridor_summary",
]


def path_stretch(path_length_m: float, geodesic_m: float) -> float:
    """Ratio of routed path length to the great-circle distance (>= 1).

    The satellite path includes the up and down hops, so even a perfect
    route exceeds 1; hybrid LEO paths typically land between 1.1 and 1.6,
    while BP detours (Fig. 3) push far beyond.
    """
    if geodesic_m <= 0:
        raise ValueError("geodesic must be positive")
    return path_length_m / geodesic_m


@dataclass(frozen=True)
class PathComposition:
    """What a path hops through."""

    satellite_hops: int
    city_gts: int
    relay_gts: int
    aircraft_gts: int
    isl_hops: int
    radio_hops: int
    fiber_hops: int

    @property
    def intermediate_gts(self) -> int:
        """GT visits excluding the two endpoints."""
        return max(self.city_gts + self.relay_gts + self.aircraft_gts - 2, 0)


def path_composition(graph: SnapshotGraph, path_nodes) -> PathComposition:
    """Categorize every node and hop of a path."""
    nodes = list(path_nodes)
    kinds = Counter()
    for node in nodes:
        if graph.is_sat_node(node):
            kinds["sat"] += 1
        else:
            kinds[graph.stations.kind_of(node - graph.num_sats)] += 1
    hops = Counter()
    for u, v in zip(nodes[:-1], nodes[1:]):
        u_sat, v_sat = graph.is_sat_node(u), graph.is_sat_node(v)
        if u_sat and v_sat:
            hops["isl"] += 1
        elif u_sat or v_sat:
            hops["radio"] += 1
        else:
            hops["fiber"] += 1
    return PathComposition(
        satellite_hops=kinds["sat"],
        city_gts=kinds[StationKind.CITY],
        relay_gts=kinds[StationKind.RELAY],
        aircraft_gts=kinds[StationKind.AIRCRAFT],
        isl_hops=hops["isl"],
        radio_hops=hops["radio"],
        fiber_hops=hops["fiber"],
    )


@dataclass(frozen=True)
class LinkUtilization:
    """Aggregate utilization per link family after an allocation."""

    by_kind: dict[LinkKind, dict]


def rtt_jumps_ms(series) -> np.ndarray:
    """Absolute RTT step changes between consecutive snapshots, ms.

    Complements the paper's max-minus-min variation metric (Fig. 2b):
    the *jump* distribution captures what a latency-sensitive flow
    experiences at each topology change (the QoE effect the paper cites
    gaming studies for). Pairs unreachable on either side of a step
    contribute nothing. Returns the pooled 1-D array of jumps.
    """
    rtt = np.asarray(series.rtt_ms, dtype=float)
    if rtt.shape[1] < 2:
        return np.empty(0)
    diffs = np.abs(np.diff(rtt, axis=1))
    return diffs[np.isfinite(diffs)]


def corridor_summary(
    scenario,
    bp_stats,
    hybrid_stats,
    min_pairs: int = 3,
) -> list[dict]:
    """Who benefits most from ISLs, by continent corridor.

    Groups the scenario's pairs by the continent pair of their endpoint
    cities and aggregates the BP-minus-hybrid deltas of the Fig. 2
    metrics. Corridors with fewer than ``min_pairs`` samples are dropped
    (their medians are noise). Returns rows sorted by median min-RTT gap,
    largest first.
    """
    from repro.ground.regions import continent_of, corridor_name

    cities = scenario.ground.cities
    groups: dict[str, list[int]] = {}
    for index, pair in enumerate(scenario.pairs):
        corridor = corridor_name(
            continent_of(cities[pair.a].country),
            continent_of(cities[pair.b].country),
        )
        groups.setdefault(corridor, []).append(index)

    rows = []
    for corridor, indices in groups.items():
        if len(indices) < min_pairs:
            continue
        idx = np.asarray(indices)
        rtt_gap = bp_stats.min_rtt_ms[idx] - hybrid_stats.min_rtt_ms[idx]
        var_gap = bp_stats.variation_ms[idx] - hybrid_stats.variation_ms[idx]
        rtt_gap = rtt_gap[np.isfinite(rtt_gap)]
        var_gap = var_gap[np.isfinite(var_gap)]
        if len(rtt_gap) == 0:
            continue
        rows.append(
            {
                "corridor": corridor,
                "pairs": len(indices),
                "median_min_rtt_gap_ms": float(np.median(rtt_gap)),
                "max_min_rtt_gap_ms": float(np.max(rtt_gap)),
                "median_variation_gap_ms": float(np.median(var_gap))
                if len(var_gap)
                else float("nan"),
            }
        )
    rows.sort(key=lambda row: -row["median_min_rtt_gap_ms"])
    return rows


def link_utilization(
    result: ThroughputResult, saturation_threshold: float = 0.999
) -> LinkUtilization:
    """Per-link-family utilization statistics of a throughput outcome.

    This is the diagnostic behind the Fig. 4/5 interpretation: under BP
    the radio links saturate while hybrid shifts transit load onto ISLs.
    """
    graph = result.routing.graph
    capacities = graph.edge_capacities(result.capacities)
    loads = result.allocation.link_loads[: graph.num_edges]
    with np.errstate(divide="ignore", invalid="ignore"):
        utilization = np.where(capacities > 0, loads / capacities, 0.0)

    by_kind: dict[LinkKind, dict] = {}
    for kind, code in ((LinkKind.GT_SAT, 0), (LinkKind.ISL, 1), (LinkKind.FIBER, 2)):
        members = graph.edge_kind == code
        if not members.any():
            continue
        values = utilization[members]
        by_kind[kind] = {
            "links": int(members.sum()),
            "mean_utilization": float(values.mean()),
            "p95_utilization": float(np.percentile(values, 95)),
            "max_utilization": float(values.max()),
            "saturated_links": int(np.sum(values >= saturation_threshold)),
            "total_load_gbps": float(loads[members].sum() / 1e9),
        }
    return LinkUtilization(by_kind=by_kind)
