"""Layered snapshot engine: cached static / per-time / per-mode stages.

:func:`repro.network.graph.build_snapshot_graph` recomputes everything
on every call, yet most of its work is invariant across the calls real
workloads make:

* **static layer** (:class:`StaticContext`) — invariant for a
  (constellation, ground segment): station ECEF for the static ground
  nodes, the KD-tree over their unit vectors, per-shell coverage-cone
  chord radii, the +Grid ISL index topology, and memoized fiber edge
  sets per ``fiber_max_km``. Built once per engine.
* **per-time layer** (:class:`GeometryFrame`) — invariant for one
  snapshot time across connectivity modes and policies: satellite ECEF
  (propagation), the materialized station table (aircraft move), GT
  ECEF, the *candidate* GT-satellite visibility edges with slant
  distances, and lazily the ISL lengths. Frames live in an LRU cache.
  Candidate rows are ordered by satellite ascending; within one
  satellite, its static GTs (cities, then relays) come first, then
  its aircraft, each ascending by GT index. The frame finds the hits
  with one dual-tree query per (shell, GT block), encodes each as the
  key ``sat * num_gts + gt`` and sorts the keys once, and computes
  slant ranges with the same left-to-right sum as ``np.linalg.norm``.
* **per-mode assembly** (:func:`assemble_graph`) — the cheap final
  step: BP drops ISL rows, hybrid/ISL modes append them, and the GSO /
  beam-limit / fiber / fault filters apply here. Faults are *never*
  cached: a frame holds only fault-free geometry, so an ambient
  :class:`~repro.faults.FaultSpec` can neither leak into nor out of the
  cache.
* **transit contraction** (:meth:`SnapshotGraph.contracted_matrix`) —
  what RTT sweeps run Dijkstra on: satellites + cities, with every
  relay and aircraft (pure transit nodes, satellite neighbours only)
  replaced by satellite-satellite bounce edges of weight
  ``min_R d(a, R) + d(R, b)`` (:mod:`repro.network.contraction`).
  Distances between cities are exact. The bounce edges depend only on
  the GT-satellite block, which BP, hybrid and ISL-only share, so they
  are memoized on the frame keyed by ``(gso_policy,
  max_gts_per_satellite)`` and :func:`assemble_graph` gives each graph
  a handle to that memo. Faulted graphs lose the handle (``apply_faults``
  rebuilds the graph) and contract their own edges. Cities, paths,
  routing and the assembled graph itself are not contracted. ISL_ONLY
  keeps hybrid's graph, bounce edges included, so its behaviour is
  unchanged; an ISL_ONLY graph without ground transit would simply
  leave the bounce edges out.

The assembled graphs are numerically identical to
``build_snapshot_graph`` output (same edges, distances, kinds, in the
same order) — the splitting only removes redundant recomputation. A
two-mode sweep therefore pays for propagation and KD-tree queries once
per snapshot instead of once per (snapshot, mode).

Observability: the engine bumps ``engine.static_hits/misses``,
``engine.frame_hits/misses``, ``engine.frame_evictions`` and
``engine.assemblies`` counters, plus ``engine.cand_edges`` (candidate
rows built, per frame miss: the frame layer's work, by which its time
can be normalized). It nests its work under the ``graph_build`` span
(children: ``frame_build`` with ``kdtree_query`` — the dual-tree
queries and the key sort — on a frame miss, ``edge_assembly`` always),
so profiles of the old and new paths line up. A contraction runs
under a ``transit_contraction`` span and bumps
``engine.contraction_misses``; a graph that reuses its frame's bounce
edges bumps ``engine.contraction_hits``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from repro.constants import EARTH_RADIUS
from repro.faults import FaultSpec, apply_faults
from repro.ground.stations import GroundSegment, StationTable
from repro.network.fiber import city_fiber_edges
from repro.network.graph import (
    _KIND_FIBER,
    _KIND_GT_SAT,
    _KIND_ISL,
    ConnectivityMode,
    GsoProtectionPolicy,
    SnapshotGraph,
    beam_limited_edge_mask,
    gso_compliant_edge_mask,
)
from repro.network.topology import constellation_isl_edges, isl_lengths_m
from repro.obs import incr, span
from repro.orbits.constellation import Constellation
from repro.orbits.coordinates import geodetic_to_ecef
from repro.orbits.visibility import coverage_central_angle_rad

__all__ = [
    "GeometryFrame",
    "SnapshotEngine",
    "StaticContext",
    "assemble_graph",
]

#: Default number of geometry frames kept alive per engine. A two-mode
#: same-instant workload needs exactly one; serial one-mode-at-a-time
#: passes over short series benefit from a few more. Frames are the
#: memory-heavy layer (candidate edges scale with GTs x coverage), so
#: the default stays small.
DEFAULT_FRAME_CACHE_SIZE = 8


@dataclass(frozen=True)
class StaticContext:
    """Time- and mode-invariant state of one (constellation, ground) pair.

    ``static_count`` static ground nodes (cities then relays — the
    station-table prefix whose positions never change) back the KD-tree;
    aircraft are per-frame. ``shell_params`` holds ``(offset, count,
    chord)`` per shell: the flat satellite index range plus the coverage
    cone's chord radius on the unit sphere. ``isl_edges`` is the +Grid
    topology in flat satellite indices (lengths are per-frame).
    """

    constellation: Constellation
    ground: GroundSegment
    static_count: int
    static_lats: np.ndarray
    static_lons: np.ndarray
    static_ecef: np.ndarray
    static_tree: cKDTree | None
    shell_params: tuple[tuple[int, int, float], ...]
    isl_edges: np.ndarray
    #: Memoized fiber edge sets keyed by ``fiber_max_km``.
    _fiber_cache: dict = field(default_factory=dict, repr=False)

    @classmethod
    def build(cls, constellation: Constellation, ground: GroundSegment) -> "StaticContext":
        """Precompute every time-invariant piece of graph construction."""
        city_lats = np.array([c.lat_deg for c in ground.cities])
        city_lons = np.array([c.lon_deg for c in ground.cities])
        parts_lat = [city_lats]
        parts_lon = [city_lons]
        if ground.use_relays and len(ground.relay_lats):
            parts_lat.append(ground.relay_lats)
            parts_lon.append(ground.relay_lons)
        static_lats = np.concatenate(parts_lat)
        static_lons = np.concatenate(parts_lon)
        static_ecef = geodetic_to_ecef(static_lats, static_lons, 0.0)
        if len(static_lats):
            static_tree = cKDTree(static_ecef / EARTH_RADIUS)
        else:
            static_tree = None

        offsets = constellation.shell_offsets()
        shell_params = tuple(
            (
                offset,
                shell.num_satellites,
                2.0
                * np.sin(
                    coverage_central_angle_rad(
                        shell.altitude_m, shell.min_elevation_deg
                    )
                    / 2.0
                ),
            )
            for offset, shell in zip(offsets, constellation.shells)
        )
        return cls(
            constellation=constellation,
            ground=ground,
            static_count=len(static_lats),
            static_lats=static_lats,
            static_lons=static_lons,
            static_ecef=static_ecef,
            static_tree=static_tree,
            shell_params=shell_params,
            isl_edges=constellation_isl_edges(constellation),
        )

    def fiber_edges(self, fiber_max_km: float) -> tuple[np.ndarray, np.ndarray]:
        """Memoized city fiber edges (city indices, metres) for a radius."""
        key = float(fiber_max_km)
        cached = self._fiber_cache.get(key)
        if cached is None:
            cached = city_fiber_edges(
                self.static_lats[: self.ground.city_count],
                self.static_lons[: self.ground.city_count],
                key,
            )
            self._fiber_cache[key] = cached
        return cached


@dataclass
class GeometryFrame:
    """Mode-independent geometry of one snapshot time.

    ``cand_edges`` are *candidate* GT-satellite edges — every satellite
    visible from every GT under the coverage-cone condition, before any
    policy filter — as ``(m, 2)`` ``[sat_index, gt_node]`` rows with
    ``cand_dist_m`` slant distances, in the row order the module
    docstring states. Assembly filters copies of these;
    the frame itself is immutable by convention and safe to share
    across modes, policies, and fault specs.
    """

    time_s: float
    stations: StationTable
    sat_ecef: np.ndarray
    gt_ecef: np.ndarray
    cand_edges: np.ndarray
    cand_dist_m: np.ndarray
    _static: StaticContext
    _isl_dist_m: np.ndarray | None = None
    #: Bounce edges keyed by the filters that shape the GT-satellite
    #: block (``gso_policy``, ``max_gts_per_satellite``).
    _bounce: dict = field(default_factory=dict, repr=False)

    @property
    def num_sats(self) -> int:
        """Number of satellites (the GT node-id offset in graphs)."""
        return len(self.sat_ecef)

    def isl_dist_m(self) -> np.ndarray:
        """ISL lengths at this snapshot time (lazy, memoized).

        Lazy so BP-only workloads never pay for them; memoized so
        hybrid and ISL-only assemblies of the same frame share one
        computation. The memo is idempotent (same deterministic
        output), so a benign race merely recomputes it.
        """
        if self._isl_dist_m is None:
            self._isl_dist_m = isl_lengths_m(self._static.isl_edges, self.sat_ecef)
        return self._isl_dist_m

    def bounce_edges(self, key, build):
        """Transit-contraction bounce edges for one GT-satellite block.

        The block depends on the frame and the GSO / beam-limit filters
        only — not on the mode or fiber — so BP, hybrid and ISL-only
        graphs of one snapshot share a single contraction. ``build``
        computes it on a miss. Like :meth:`isl_dist_m`, a race merely
        recomputes the same deterministic value.
        """
        bounce = self._bounce.get(key)
        if bounce is None:
            bounce = self._bounce[key] = build()
        else:
            incr("engine.contraction_hits")
        return bounce


def _build_frame(static: StaticContext, time_s: float) -> GeometryFrame:
    """The per-time layer: propagate, materialize GTs, find candidates."""
    sat_ecef = static.constellation.positions_ecef(time_s)
    stations = static.ground.stations_at(time_s)
    num_sats = len(sat_ecef)
    static_count = static.static_count

    air_lats = stations.lats[static_count:]
    air_lons = stations.lons[static_count:]
    air_alts = stations.altitudes[static_count:]
    if len(air_lats):
        air_ecef = geodetic_to_ecef(air_lats, air_lons, air_alts)
        gt_ecef = np.concatenate([static.static_ecef, air_ecef])
        air_tree = cKDTree(geodetic_to_ecef(air_lats, air_lons, 0.0) / EARTH_RADIUS)
    else:
        gt_ecef = static.static_ecef
        air_tree = None

    blocks = [
        (tree, gt_offset)
        for tree, gt_offset in ((static.static_tree, 0), (air_tree, static_count))
        if tree is not None
    ]
    num_gts = len(gt_ecef)
    with span("kdtree_query"):
        # One dual-tree query per (shell, GT block). A hit's key is
        # sat * num_gts + gt, so one sort puts the rows in (satellite, GT)
        # order; aircraft follow static GTs because their ids are larger.
        # The empty first entry stands for a ground with no GT at all.
        keys = [np.empty(0, dtype=np.int64)]
        for offset, count, chord in static.shell_params:
            shell_sats = sat_ecef[offset : offset + count]
            sat_tree = cKDTree(
                shell_sats / np.linalg.norm(shell_sats, axis=1, keepdims=True)
            )
            for tree, gt_offset in blocks:
                hits = sat_tree.sparse_distance_matrix(tree, chord, output_type="ndarray")
                keys.append((hits["i"] + offset) * num_gts + (hits["j"] + gt_offset))
        sats, gts = np.divmod(np.sort(np.concatenate(keys)), num_gts)
        row_counts = np.bincount(sats, minlength=num_sats)

    cand_edges = np.empty((len(gts), 2), dtype=np.int64)
    cand_edges[:, 0] = sats
    cand_edges[:, 1] = gts + num_sats
    # Slant ranges as sqrt(dx*dx + dy*dy + dz*dz) on ECEF columns: the
    # same left-to-right sum as ``np.linalg.norm`` over gathered rows
    # (``axis=1``), so bit-identical to it, without the row gathers.
    diff = np.repeat(sat_ecef.T, row_counts, axis=1)
    diff -= np.take(np.ascontiguousarray(gt_ecef.T), gts, axis=1)
    diff *= diff
    cand_dist_m = diff[0] + diff[1]
    cand_dist_m += diff[2]
    np.sqrt(cand_dist_m, out=cand_dist_m)
    return GeometryFrame(
        time_s=time_s,
        stations=stations,
        sat_ecef=sat_ecef,
        gt_ecef=gt_ecef,
        cand_edges=cand_edges,
        cand_dist_m=cand_dist_m,
        _static=static,
    )


def assemble_graph(
    static: StaticContext,
    frame: GeometryFrame,
    mode: ConnectivityMode,
    *,
    gso_policy: GsoProtectionPolicy | None = None,
    fiber_max_km: float | None = None,
    max_gts_per_satellite: int | None = None,
    faults: FaultSpec | None = None,
) -> SnapshotGraph:
    """The per-mode layer: compose a :class:`SnapshotGraph` from a frame.

    Filter order is load-bearing and mirrors the monolithic builder:
    GSO-noncompliant candidate edges are dropped *first*, then the beam
    limit ranks what remains (a forbidden edge must not consume a
    beam), then ISL and fiber rows are appended, and faults are applied
    to the fully assembled graph. Faults always run here — never in a
    cached layer — so fault injection cannot poison frames.
    """
    stations = frame.stations
    num_sats = frame.num_sats
    edges = frame.cand_edges
    dists = frame.cand_dist_m

    with span("edge_assembly"):
        if gso_policy is not None and len(edges):
            compliant = gso_compliant_edge_mask(
                stations.lats,
                stations.lons,
                frame.gt_ecef,
                frame.sat_ecef,
                edges[:, 1] - num_sats,
                edges[:, 0],
                gso_policy,
            )
            edges = edges[compliant]
            dists = dists[compliant]

        if max_gts_per_satellite is not None and len(edges):
            keep = beam_limited_edge_mask(edges[:, 0], dists, max_gts_per_satellite)
            edges = edges[keep]
            dists = dists[keep]
        elif max_gts_per_satellite is not None and max_gts_per_satellite < 1:
            raise ValueError("max_gts_per_satellite must be >= 1")

        edge_blocks = [edges.reshape(-1, 2)]
        dist_blocks = [dists]
        kind_blocks = [np.full(len(edges), _KIND_GT_SAT, dtype=np.int8)]

        if mode.uses_isls:
            edge_blocks.append(static.isl_edges)
            dist_blocks.append(frame.isl_dist_m())
            kind_blocks.append(np.full(len(static.isl_edges), _KIND_ISL, dtype=np.int8))

        if fiber_max_km is not None and stations.city_count >= 2:
            city_edges, fiber_dists = static.fiber_edges(fiber_max_km)
            if len(city_edges):
                edge_blocks.append(city_edges + num_sats)
                dist_blocks.append(fiber_dists)
                kind_blocks.append(
                    np.full(len(city_edges), _KIND_FIBER, dtype=np.int8)
                )

        all_edges = np.vstack(edge_blocks)
        all_dists = np.concatenate(dist_blocks)
        all_kinds = np.concatenate(kind_blocks)

    graph = SnapshotGraph(
        time_s=frame.time_s,
        mode=mode,
        num_sats=num_sats,
        num_gts=stations.total,
        sat_ecef=frame.sat_ecef,
        gt_ecef=frame.gt_ecef,
        edges=all_edges,
        edge_dist_m=all_dists,
        edge_kind=all_kinds,
        stations=stations,
        _bounce_share=(frame, (gso_policy, max_gts_per_satellite)),
    )
    return apply_faults(graph, faults)


class SnapshotEngine:
    """Layered graph construction with caching between the layers.

    One engine per (constellation, ground segment); both are treated as
    immutable, so the static layer never invalidates. Frames are keyed
    by exact snapshot time and kept in an LRU cache of
    ``frame_cache_size`` entries; :meth:`clear` empties it (e.g. after
    an experiment mutates global state the engine cannot see — there is
    no such state today, but the escape hatch is cheap).

    Thread-safe for concurrent ``graph_at`` calls: cache bookkeeping is
    lock-protected and frames are immutable once published.
    """

    def __init__(
        self,
        constellation: Constellation,
        ground: GroundSegment,
        frame_cache_size: int = DEFAULT_FRAME_CACHE_SIZE,
    ):
        if frame_cache_size < 1:
            raise ValueError("frame_cache_size must be >= 1")
        self.constellation = constellation
        self.ground = ground
        self.frame_cache_size = frame_cache_size
        self._static: StaticContext | None = None
        self._frames: OrderedDict[float, GeometryFrame] = OrderedDict()
        self._lock = threading.Lock()

    @property
    def static(self) -> StaticContext:
        """The static layer, built on first access and then reused."""
        with self._lock:
            if self._static is None:
                with span("static_build"):
                    self._static = StaticContext.build(self.constellation, self.ground)
                incr("engine.static_misses")
            else:
                incr("engine.static_hits")
            return self._static

    def frame_at(self, time_s: float) -> GeometryFrame:
        """The per-time layer for one snapshot, LRU-cached by exact time."""
        key = float(time_s)
        static = self.static
        with self._lock:
            frame = self._frames.get(key)
            if frame is not None:
                self._frames.move_to_end(key)
                incr("engine.frame_hits")
                return frame
        # Build outside the lock: frame construction is the expensive
        # stage and concurrent builders of different times shouldn't
        # serialize. Two racers on the same time build identical frames;
        # last-in wins and the loser's copy is garbage-collected.
        with span("frame_build"):
            frame = _build_frame(static, key)
        with self._lock:
            incr("engine.frame_misses")
            incr("engine.cand_edges", len(frame.cand_edges))
            self._frames[key] = frame
            self._frames.move_to_end(key)
            while len(self._frames) > self.frame_cache_size:
                self._frames.popitem(last=False)
                incr("engine.frame_evictions")
        return frame

    def graph_at(
        self,
        time_s: float,
        mode: ConnectivityMode,
        *,
        gso_policy: GsoProtectionPolicy | None = None,
        fiber_max_km: float | None = None,
        max_gts_per_satellite: int | None = None,
        faults: FaultSpec | None = None,
    ) -> SnapshotGraph:
        """Assemble one snapshot graph through the cached layers."""
        with span("graph_build"):
            frame = self.frame_at(time_s)
            incr("engine.assemblies")
            return assemble_graph(
                self.static,
                frame,
                mode,
                gso_policy=gso_policy,
                fiber_max_km=fiber_max_km,
                max_gts_per_satellite=max_gts_per_satellite,
                faults=faults,
            )

    def graphs_at(
        self,
        time_s: float,
        modes,
        *,
        gso_policy: GsoProtectionPolicy | None = None,
        fiber_max_km: float | None = None,
        max_gts_per_satellite: int | None = None,
        faults: FaultSpec | None = None,
    ) -> dict[ConnectivityMode, SnapshotGraph]:
        """All requested modes of one instant, from one shared frame."""
        return {
            mode: self.graph_at(
                time_s,
                mode,
                gso_policy=gso_policy,
                fiber_max_km=fiber_max_km,
                max_gts_per_satellite=max_gts_per_satellite,
                faults=faults,
            )
            for mode in modes
        }

    def cached_frame_times(self) -> list[float]:
        """Snapshot times currently held in the frame cache (LRU order)."""
        with self._lock:
            return list(self._frames)

    def clear(self) -> None:
        """Drop every cached frame (the static layer stays)."""
        with self._lock:
            self._frames.clear()
