"""The snapshot pipeline: RTT series for a traffic matrix over a day.

For each snapshot, shortest-path RTTs for every city pair are computed
on the contracted graph with one batched Dijkstra from a vertex cover
of the pair graph. This is the workhorse behind the paper's Section 4
(Fig. 2) analysis. Hop-level paths on the physical graph come from
:func:`repro.flows.routing.route_traffic` instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csgraph

from repro.constants import SPEED_OF_LIGHT
from repro.context import current
from repro.core.parallel import map_snapshot_rows
from repro.core.scenario import Scenario
from repro.flows.traffic import CityPair, pair_index
from repro.integrity.guards import (
    check_cross_mode_rtt,
    check_graph,
    check_rtt_series,
)
from repro.network.graph import ConnectivityMode, SnapshotGraph
from repro.obs import span

__all__ = [
    "RttSeries",
    "compute_rtt_series_multi",
    "pair_rtts_on_graph",
]


@dataclass(frozen=True)
class RttSeries:
    """RTT (ms) for each pair at each snapshot; ``inf`` = unreachable."""

    mode: ConnectivityMode
    times_s: np.ndarray
    rtt_ms: np.ndarray  # shape (num_pairs, num_snapshots)

    @property
    def num_pairs(self) -> int:
        return self.rtt_ms.shape[0]

    @property
    def num_snapshots(self) -> int:
        return self.rtt_ms.shape[1]

    def reachable_fraction(self) -> float:
        """Fraction of (pair, snapshot) cells with a usable path."""
        return float(np.mean(np.isfinite(self.rtt_ms)))


def pair_rtts_on_graph(graph: SnapshotGraph, pairs: list[CityPair]) -> np.ndarray:
    """Shortest-path RTT in ms for every pair on one snapshot graph.

    The one RTT evaluator: every RTT sweep and experiment reads pairs
    through it, so under strict mode it checks each graph with
    :func:`~repro.integrity.guards.check_graph` first. Dijkstra runs on
    :meth:`SnapshotGraph.contracted_matrix` (satellites + cities, relays
    and aircraft replaced by bounce edges): the same distances as the
    physical graph at a fraction of the CSR entries. RTT is symmetric,
    so it runs from the pair graph's vertex cover
    (:attr:`~repro.flows.traffic.PairIndex.cover_cities`) and reads each
    pair from whichever endpoint is in it.
    """
    if current().strict:
        check_graph(graph, source=f"graph[t={graph.time_s:g}s]")
    if not pairs:
        return np.full(0, np.inf)
    index = pair_index(pairs)
    index.gt_nodes(graph.num_sats, graph.stations.city_count)  # cities only
    matrix = graph.contracted_matrix()
    with span("dijkstra"):
        distances = csgraph.dijkstra(
            matrix,
            directed=True,
            indices=graph.num_sats + index.cover_cities,
        )
    dist_m = distances[index.cover_row, graph.num_sats + index.cover_target]
    return np.where(np.isfinite(dist_m), 2e3 * dist_m / SPEED_OF_LIGHT, np.inf)


def _rtt_snapshot_row(scenario, time_s, mode) -> np.ndarray:
    """One snapshot's RTT row: what every RTT sweep maps, in-process or in workers."""
    return pair_rtts_on_graph(scenario.graph_at(float(time_s), mode), scenario.pairs)


def compute_rtt_series_multi(
    scenario: Scenario,
    modes,
    *,
    progress=None,
) -> "dict[ConnectivityMode, RttSeries]":
    """RTTs of every scenario pair across every snapshot, for several modes.

    The one RTT sweep: :func:`_rtt_snapshot_row` mapped over the
    snapshot grid by :func:`repro.core.parallel.map_snapshot_rows`,
    in-process by default (time-outer, mode-inner, so a BP + hybrid
    comparison pays for propagation and visibility queries once per
    snapshot) or across the run context's ``jobs`` workers (``repro run
    --jobs N``).

    Under the run context's checkpoint root
    (:func:`repro.core.checkpoint.checkpoint_root`, ``repro run
    --resume``) every row is persisted as it lands: an interrupted sweep
    resumes from disk, and a rerun under the same root reloads the
    archived series without evaluating a snapshot. ``progress`` is
    documented on the map. Results are bit-identical for any ``jobs``.
    Under strict mode every series is checked, and a sweep over both BP
    and hybrid also checks hybrid <= BP per cell.
    """
    modes = list(modes)
    rows = map_snapshot_rows(
        scenario,
        modes,
        _rtt_snapshot_row,
        row_len=len(scenario.pairs),
        progress=progress,
    )
    series = {
        mode: RttSeries(mode=mode, times_s=scenario.times_s, rtt_ms=rows[mode])
        for mode in modes
    }
    if current().strict:
        for mode in modes:
            check_rtt_series(series[mode], scenario.pairs, source=f"rtt[{mode.value}]")
        bp = series.get(ConnectivityMode.BP_ONLY)
        hybrid = series.get(ConnectivityMode.HYBRID)
        if bp is not None and hybrid is not None:
            check_cross_mode_rtt(bp, hybrid, source="rtt[hybrid vs bp]")
    return series

