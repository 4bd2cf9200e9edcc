"""Post-hoc analysis utilities: hop mixes, RTT jumps, corridor gaps.

These helpers answer the questions a network analyst asks *after* a
simulation: what do paths hop through, how hard does RTT jump between
snapshots, and which continent corridors gain most from ISLs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.ground.stations import StationKind
from repro.network.graph import SnapshotGraph

__all__ = [
    "PathComposition",
    "path_composition",
    "rtt_jumps_ms",
    "corridor_summary",
]


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
