"""The snapshot pipeline: RTT series for a traffic matrix over a day.

For each snapshot, shortest-path RTTs for every city pair are computed
with source-batched Dijkstra: pairs are grouped by source city, one
single-source run serves every pair sharing that source. This is the
workhorse behind the paper's Section 4 (Fig. 2) analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csgraph

from repro.constants import SPEED_OF_LIGHT
from repro.core.scenario import Scenario
from repro.obs import span
from repro.flows.traffic import CityPair, pair_index
from repro.network.graph import ConnectivityMode, SnapshotGraph
from repro.network.paths import Path, extract_path

__all__ = [
    "RttSeries",
    "compute_rtt_series",
    "compute_rtt_series_multi",
    "pair_path_at",
    "pair_paths_on_graph",
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


def _pairs_by_source(pairs: list[CityPair]) -> dict[int, list[int]]:
    """Group pair indices by source city for source-batched Dijkstra.

    One single-source run serves every pair sharing that source; both
    the RTT sweep and path extraction batch this way. Keys follow first
    appearance (dict insertion order) — iterate ``sorted(...)`` when a
    deterministic source order matters.
    """
    by_source: dict[int, list[int]] = {}
    for idx, pair in enumerate(pairs):
        by_source.setdefault(pair.a, []).append(idx)
    return by_source


def _pair_rtts_on_graph(graph: SnapshotGraph, pairs: list[CityPair]) -> np.ndarray:
    """Shortest-path RTT in ms for every pair on one snapshot graph.

    Dijkstra runs on :meth:`SnapshotGraph.contracted_matrix` (satellites
    + cities, relays and aircraft replaced by bounce edges): the same
    distances as the physical graph at a fraction of the CSR entries.
    """
    if not pairs:
        return np.full(0, np.inf)
    index = pair_index(pairs)
    _, target_nodes = index.gt_nodes(graph.num_sats, graph.stations.city_count)
    matrix = graph.contracted_matrix()
    with span("dijkstra"):
        distances = csgraph.dijkstra(
            matrix,
            directed=True,
            indices=graph.num_sats + index.source_cities,
        )
    dist_m = distances[index.source_row, target_nodes]
    return np.where(np.isfinite(dist_m), 2e3 * dist_m / SPEED_OF_LIGHT, np.inf)


def _rtt_snapshot_row(scenario, time_s, mode) -> np.ndarray:
    """The RTT evaluator: one snapshot's RTT row, strict-checked.

    Serial and parallel sweeps both map this function, so the strict
    guard runs the same way in either.
    """
    from repro.integrity.guards import check_graph, strict_enabled

    graph = scenario.graph_at(float(time_s), mode)
    if strict_enabled():
        check_graph(graph, source=f"graph[t={float(time_s):g}s]")
    return _pair_rtts_on_graph(graph, scenario.pairs)


def compute_rtt_series_multi(
    scenario: Scenario,
    modes,
    progress=None,
    checkpoints=None,
) -> "dict[ConnectivityMode, RttSeries]":
    """RTTs of every scenario pair across every snapshot, for several modes.

    A thin RTT evaluator over the generic snapshot map
    (:func:`repro.core.parallel.map_snapshot_rows_serial`), whose loop
    is time-outer, mode-inner: every requested mode of one snapshot
    assembles from the same cached geometry frame before the sweep moves
    to the next time, so a BP + hybrid comparison pays for satellite
    propagation and KD-tree visibility queries exactly once per snapshot
    — regardless of the engine's frame-cache depth.

    ``progress`` (optional) is called as ``progress(i, total)`` after
    each snapshot (all modes of it). ``checkpoints`` (optional) maps
    modes to :class:`repro.core.checkpoint.RttCheckpoint` instances;
    modes without an entry fall back to the ambient checkpoint root
    when one is active.
    """
    # Lazy import: parallel imports this module at load time.
    from repro.core.parallel import map_snapshot_rows_serial
    from repro.integrity.guards import check_rtt_series, strict_enabled

    modes = list(modes)
    rows = map_snapshot_rows_serial(
        scenario,
        modes,
        _rtt_snapshot_row,
        row_len=len(scenario.pairs),
        checkpoints=checkpoints,
        progress=progress,
    )
    series = {
        mode: RttSeries(mode=mode, times_s=scenario.times_s, rtt_ms=rows[mode])
        for mode in modes
    }
    if strict_enabled():
        for mode in modes:
            check_rtt_series(series[mode], scenario.pairs, source=f"rtt[{mode.value}]")
    return series


def compute_rtt_series(
    scenario: Scenario,
    mode: ConnectivityMode,
    progress=None,
    checkpoint=None,
) -> RttSeries:
    """RTTs of every scenario pair across every snapshot.

    Single-mode wrapper over :func:`compute_rtt_series_multi` (which
    shares cached geometry frames when sweeping several modes at once).

    ``progress`` (optional) is called as ``progress(i, total)`` after each
    snapshot — long full-scale runs want a heartbeat.

    ``checkpoint`` (an :class:`repro.core.checkpoint.RttCheckpoint`, or
    the ambient checkpoint root when one is active) makes the sweep
    resumable: already-checkpointed snapshots are loaded from disk, and
    each newly computed row is persisted the moment it completes.
    """
    series = compute_rtt_series_multi(
        scenario,
        [mode],
        progress=progress,
        checkpoints={mode: checkpoint} if checkpoint is not None else None,
    )
    return series[mode]


def pair_paths_on_graph(
    graph: SnapshotGraph, pairs: list[CityPair]
) -> list[tuple[int, ...] | None]:
    """Shortest-path node sequences for many pairs on one graph.

    Source-batched: one predecessor-producing Dijkstra per unique source
    city serves all pairs sharing it. Unreachable pairs yield ``None``.
    """
    by_source = _pairs_by_source(pairs)
    matrix = graph.matrix()
    paths: list[tuple[int, ...] | None] = [None] * len(pairs)
    for city, pair_indices in by_source.items():
        source = graph.gt_node(city)
        with span("dijkstra"):
            _, pred = csgraph.dijkstra(
                matrix, directed=True, indices=source, return_predecessors=True
            )
        with span("path_extraction"):
            for idx in pair_indices:
                target = graph.gt_node(pairs[idx].b)
                paths[idx] = extract_path(pred, source, target)
    return paths


def pair_path_at(
    scenario: Scenario,
    pair: CityPair,
    time_s: float,
    mode: ConnectivityMode,
) -> tuple[SnapshotGraph, Path | None]:
    """The actual shortest path (nodes) for one pair at one snapshot.

    Used by the Fig. 3 / Fig. 7-8 case studies that need hop-level
    detail, not just the RTT.
    """
    graph = scenario.graph_at(time_s, mode)
    source = graph.gt_node(pair.a)
    target = graph.gt_node(pair.b)
    dist, pred = csgraph.dijkstra(
        graph.matrix(), directed=True, indices=source, return_predecessors=True
    )
    nodes = extract_path(pred, source, target)
    if nodes is None:
        return graph, None
    return graph, Path(nodes=nodes, length_m=float(dist[target]))
