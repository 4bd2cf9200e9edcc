"""Layered snapshot engine: cached static / per-time / per-mode stages.

Building a snapshot graph from scratch on every call would redo work
that is invariant across the calls real workloads make:

* **static layer** (:class:`StaticContext`) — invariant for a
  (constellation, ground segment): station ECEF for the static ground
  nodes, the KD-tree over their unit vectors, per-shell coverage-cone
  chord radii, the +Grid ISL index topology, and memoized fiber edge
  sets per ``fiber_max_km``. Built once per engine.
* **per-time layer** (:class:`GeometryFrame`) — invariant for one
  snapshot time across connectivity modes and policies: satellite ECEF
  (propagation), the materialized station table (aircraft move), GT
  ECEF, the *candidate* GT-satellite visibility edges with slant
  distances, and lazily the ISL lengths. The engine holds one frame:
  the current instant's.
  Candidate rows are ordered by satellite ascending; within one
  satellite, its static GTs (cities, then relays) come first, then
  its aircraft, each ascending by GT index. They are stored as a CSR
  by satellite: ``cand_start`` offsets (``num_sats + 1``), an int32
  ``cand_gt`` column and the float64 ``cand_dist_m`` column, 12 bytes
  per row. The frame finds the hits with one dual-tree query per
  (shell, GT block), encodes each as the key ``sat * num_gts + gt``
  and sorts the keys once; the offsets are a ``searchsorted`` of the
  sorted keys at ``sat * num_gts``. Slant ranges are summed one ECEF
  axis at a time, in the same left-to-right order as
  ``np.linalg.norm``.
* **per-mode assembly** (:func:`assemble_graph`) — the cheap final
  step: the GSO / beam-limit filters apply to the candidate rows (a
  filtered copy stays a CSR by satellite; unfiltered graphs share the
  frame's arrays), hybrid/ISL modes add the ISL rows and fiber adds
  city-city rows as a small ISL/fiber block, and faults apply. These
  two parts plus the frame are the graph's one form
  (:class:`~repro.network.graph.SnapshotGraph`). Its physical edge
  table (int64 ``(m, 2)`` ``edges``, ``edge_dist_m``, ``edge_kind``:
  radio rows, then ISL, then fiber) is a view derived from the parts
  on first read, which bumps ``engine.edge_tables``. Routing and RTT
  sweeps never read it (``matrix()`` assembles from the parts), and
  the strict graph guard checks the parts themselves. Faults
  are *never* cached: a frame holds only fault-free geometry, so the
  run context's :class:`~repro.faults.FaultSpec` can neither leak into
  nor out of the cache.
* **transit contraction** (:meth:`SnapshotGraph.contracted_matrix`) —
  what RTT sweeps run Dijkstra on: satellites + cities, with every
  relay and aircraft (pure transit nodes, satellite neighbours only)
  replaced by satellite-satellite bounce edges of weight
  ``min_R d(a, R) + d(R, b)`` (:mod:`repro.network.contraction`).
  Distances between cities are exact. The *contracted radio block* —
  the city GT-satellite edges plus the bounce edges, one minimum per
  pair — depends only on the GT-satellite rows, which BP, hybrid and
  ISL-only share, so it is memoized on the frame keyed by
  ``(gso_policy, max_gts_per_satellite)`` and :func:`assemble_graph`
  gives each graph a handle to that memo. The block is read straight
  from the graph's satellite CSR: one counting-sort transpose gives
  the by-GT view, whose leading columns are the cities and whose
  remaining columns are the transit GTs. Each graph then merges only
  its ISL and fiber rows into the block before its CSR build.
  ``apply_faults`` masks both parts and keeps the frame, so strict
  mode checks a faulted graph's physics too, but it drops the memo
  handle: a faulted graph contracts its own rows through the same
  transpose. Cities, paths, routing and the assembled
  graph itself are not contracted. ISL_ONLY keeps hybrid's graph,
  bounce edges included, so its behaviour is unchanged; an ISL_ONLY
  graph without ground transit would simply leave the bounce edges
  out.

The assembled graphs are numerically identical to a monolithic
from-scratch build (same edges, distances, kinds, in the same order;
the test suite keeps one as its reference) — the splitting only
removes redundant recomputation. A
two-mode sweep therefore pays for propagation and KD-tree queries once
per snapshot instead of once per (snapshot, mode).

Observability: the engine bumps ``engine.static_hits/misses``,
``engine.frame_hits/misses``, ``engine.assemblies`` and
``engine.edge_tables`` (physical tables built) counters, plus
``engine.cand_edges`` (candidate rows built, per frame miss: the frame
layer's work, by which its time can be normalized) and
``engine.frame_bytes`` (the array bytes of each built frame). It nests
its work under the ``graph_build`` span (children: ``frame_build``
with ``kdtree_query`` — the dual-tree queries and the key sort — on a
frame miss, ``edge_assembly`` always), so profiles of the old and new
paths line up. A contraction runs under a ``transit_contraction``
span, bumps ``engine.contraction_misses`` and adds the (GT, a, b)
triples it expands to ``engine.bounce_candidates``; a graph that
reuses its frame's radio block bumps ``engine.contraction_hits``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from repro.constants import EARTH_RADIUS, slant_range_m
from repro.faults import FaultSpec, apply_faults
from repro.ground.stations import GroundSegment, StationTable
from repro.network.fiber import city_fiber_edges
from repro.network.graph import (
    _KIND_FIBER,
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

@dataclass(frozen=True)
class StaticContext:
    """Time- and mode-invariant state of one (constellation, ground) pair.

    ``static_count`` static ground nodes (cities then relays — the
    station-table prefix whose positions never change) back the KD-tree;
    aircraft are per-frame. ``shell_params`` holds ``(offset, count,
    chord)`` per shell: the flat satellite index range plus the coverage
    cone's chord radius on the unit sphere. ``isl_edges`` is the +Grid
    topology in flat satellite indices (lengths are per-frame).
    ``radio_range_m`` is each satellite's longest GT-satellite link, its
    shell's ``slant_range_m(altitude, min_elevation)``: the bound the
    strict graph guard (:func:`repro.integrity.guards.check_graph`)
    holds radio rows to.
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
    radio_range_m: np.ndarray
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
            radio_range_m=np.repeat(
                [
                    slant_range_m(shell.altitude_m, shell.min_elevation_deg)
                    for shell in constellation.shells
                ],
                [shell.num_satellites for shell in constellation.shells],
            ),
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

    The *candidate* GT-satellite edges — every satellite visible from
    every GT under the coverage-cone condition, before any policy
    filter — are a CSR by satellite: satellite ``s`` owns rows
    ``cand_start[s]:cand_start[s + 1]``, whose int32 ``cand_gt`` holds
    GT station indices and ``cand_dist_m`` slant distances, in the row
    order the module docstring states. That is 12 bytes per row plus
    ``num_sats + 1`` offsets. Assembly filters copies of these; the
    frame itself is immutable by convention and safe to share across
    modes, policies, and fault specs.
    """

    time_s: float
    stations: StationTable
    sat_ecef: np.ndarray
    gt_ecef: np.ndarray
    cand_start: np.ndarray
    cand_gt: np.ndarray
    cand_dist_m: np.ndarray
    _static: StaticContext
    _isl_dist_m: np.ndarray | None = None
    #: Contracted radio blocks keyed by the filters that shape the
    #: GT-satellite block (``gso_policy``, ``max_gts_per_satellite``).
    _radio: dict = field(default_factory=dict, repr=False)

    @property
    def num_sats(self) -> int:
        """Number of satellites (the GT node-id offset in graphs)."""
        return len(self.sat_ecef)

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays built for this frame (the memos excluded)."""
        arrays = (
            self.sat_ecef,
            self.gt_ecef,
            self.cand_start,
            self.cand_gt,
            self.cand_dist_m,
            self.stations.lats,
            self.stations.lons,
            self.stations.altitudes,
        )
        return sum(array.nbytes for array in arrays)

    def cand_sat(self) -> np.ndarray:
        """The satellite of each candidate row (int32), from ``cand_start``."""
        counts = np.diff(self.cand_start)
        return np.repeat(np.arange(self.num_sats, dtype=np.int32), counts)

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

    @property
    def radio_range_m(self) -> np.ndarray:
        """Each satellite's longest GT-satellite link (see :class:`StaticContext`)."""
        return self._static.radio_range_m

    def contracted_radio(self, key, build):
        """The contracted radio block for one set of GT-satellite filters.

        The block (city GT-satellite edges plus bounce edges, one
        minimum per pair) depends on the frame and the GSO / beam-limit
        filters only — not on the mode or fiber — so BP, hybrid and
        ISL-only graphs of one snapshot share a single contraction.
        ``build`` computes it on a miss from the asking graph's
        satellite CSR (the frame's own rows when no filter applies), so
        no physical edge table is built. Like :meth:`isl_dist_m`, a race
        merely recomputes the same deterministic value.
        """
        block = self._radio.get(key)
        if block is None:
            block = self._radio[key] = build()
        else:
            incr("engine.contraction_hits")
        return block


def _build_frame(static: StaticContext, time_s: float) -> GeometryFrame:
    """The per-time layer: propagate, materialize GTs, find candidates.

    A GT may use a satellite when the central angle between the GT and
    the sub-satellite point is at most the shell's coverage angle. For
    aircraft at 11 km this ground-projection test shifts the elevation
    threshold by well under a degree, negligible next to the 25-30
    degree minimum elevations involved.
    """
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
        keys = np.sort(np.concatenate(keys))
        sat_keys = np.arange(num_sats + 1, dtype=np.int64) * num_gts
        cand_start = np.searchsorted(keys, sat_keys)
        cand_gt = np.empty(len(keys), dtype=np.int32)
        np.remainder(keys, num_gts, out=cand_gt, casting="unsafe")
        del keys  # freed before the slant temporaries below

    # Slant ranges as sqrt((dx*dx + dy*dy) + dz*dz), one ECEF axis at a
    # time: the same left-to-right sum as ``np.linalg.norm`` over gathered
    # rows (``axis=1``), so bit-identical to it, with one axis of
    # temporaries at a time.
    row_counts = np.diff(cand_start)
    gt_axes = np.ascontiguousarray(gt_ecef.T)
    cand_dist_m = np.zeros(len(cand_gt))
    for axis in range(3):
        delta = np.repeat(sat_ecef[:, axis], row_counts)
        delta -= gt_axes[axis].take(cand_gt)
        delta *= delta
        cand_dist_m += delta
    np.sqrt(cand_dist_m, out=cand_dist_m)
    return GeometryFrame(
        time_s=time_s,
        stations=stations,
        sat_ecef=sat_ecef,
        gt_ecef=gt_ecef,
        cand_start=cand_start,
        cand_gt=cand_gt,
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

    Filter order is load-bearing: GSO-noncompliant candidate edges are
    dropped *first*, then the beam limit ranks what remains (a forbidden
    edge must not consume a beam), then ISL and fiber rows are appended,
    and faults are applied to the fully assembled graph. Faults always
    run here — never in a cached layer — so fault injection cannot
    poison frames.
    """
    stations = frame.stations
    num_sats = frame.num_sats
    with span("edge_assembly"):
        start, gts, dists = frame.cand_start, frame.cand_gt, frame.cand_dist_m
        if max_gts_per_satellite is not None and max_gts_per_satellite < 1:
            raise ValueError("max_gts_per_satellite must be >= 1")
        if (gso_policy is not None or max_gts_per_satellite is not None) and len(gts):
            sats = frame.cand_sat()
            if gso_policy is not None:
                compliant = gso_compliant_edge_mask(
                    stations.lats,
                    stations.lons,
                    frame.gt_ecef,
                    frame.sat_ecef,
                    gts,
                    sats,
                    gso_policy,
                )
                sats, gts, dists = sats[compliant], gts[compliant], dists[compliant]
            if max_gts_per_satellite is not None:
                keep = beam_limited_edge_mask(sats, dists, max_gts_per_satellite)
                sats, gts, dists = sats[keep], gts[keep], dists[keep]
            # Masks keep the satellite order, so the rows stay a CSR.
            start = np.searchsorted(sats, np.arange(num_sats + 1))

        edge_blocks = [np.empty((0, 2), dtype=np.int64)]
        dist_blocks = [np.empty(0)]
        kind_blocks = [np.empty(0, dtype=np.int8)]
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
        isl_fiber = (
            np.concatenate(edge_blocks, dtype=np.int64),
            np.concatenate(dist_blocks),
            np.concatenate(kind_blocks),
        )

    graph = SnapshotGraph(
        time_s=frame.time_s,
        mode=mode,
        num_sats=num_sats,
        num_gts=stations.total,
        sat_ecef=frame.sat_ecef,
        gt_ecef=frame.gt_ecef,
        stations=stations,
        sat_rows=(start, gts, dists),
        isl_fiber_rows=isl_fiber,
        frame=frame,
    )
    graph._radio_key = (gso_policy, max_gts_per_satellite)
    return apply_faults(graph, faults)


class SnapshotEngine:
    """Layered graph construction with caching between the layers.

    One engine per (constellation, ground segment); both are treated as
    immutable, so the static layer never invalidates. The engine holds
    one frame, the current instant's, keyed by exact snapshot time: every
    sweep runs time-outer, and each graph keeps its own ``frame``
    reference, so an older frame lives exactly as long as a graph that
    still reads it.

    Thread-safe for concurrent ``graph_at`` calls: the held frame is
    swapped under the lock and frames are immutable once published.
    """

    def __init__(self, constellation: Constellation, ground: GroundSegment):
        self.constellation = constellation
        self.ground = ground
        self._static: StaticContext | None = None
        self._frame: GeometryFrame | None = None
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
        """The per-time layer for one snapshot: the held frame, or a new one."""
        key = float(time_s)
        static = self.static
        with self._lock:
            if self._frame is not None and self._frame.time_s == key:
                incr("engine.frame_hits")
                return self._frame
            # Drop the held frame before the build, so the build's
            # temporaries never stack on a frame nothing will read again.
            self._frame = None
        # Build outside the lock: frame construction is the expensive
        # stage and concurrent builders of different times shouldn't
        # serialize. Two racers on the same time build identical frames;
        # last-in wins and the loser's copy is garbage-collected.
        with span("frame_build"):
            frame = _build_frame(static, key)
        with self._lock:
            incr("engine.frame_misses")
            incr("engine.cand_edges", len(frame.cand_gt))
            incr("engine.frame_bytes", frame.nbytes)
            self._frame = frame
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
