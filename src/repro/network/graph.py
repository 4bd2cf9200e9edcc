"""Snapshot network graphs: satellites + GTs + (optionally) ISLs.

This is the heart of the simulator. For one time snapshot it builds the
graph the paper routes over:

* node ids ``[0, num_sats)`` are satellites (the constellation's flat
  index space), ``[num_sats, num_sats + num_gts)`` are GTs in station-
  table order (cities, relays, aircraft);
* GT-satellite edges exist when the satellite is above the GT's minimum
  elevation (equivalently: the GT lies in the satellite's coverage cone);
* ISL edges (hybrid/ISL-only modes) follow the +Grid topology.

Graphs are built by the layered :mod:`repro.core.engine`; this module
holds the graph type and the GSO and beam-limit edge filters it uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from repro.constants import EARTH_RADIUS
from repro.obs import incr, span
from repro.network.contraction import bounce_edges, min_per_pair
from repro.network.links import LinkCapacities
from repro.orbits.visibility import gso_arc_directions_enu
from repro.ground.stations import StationTable

if TYPE_CHECKING:  # runtime import would cycle: the engine builds graphs
    from repro.core.engine import GeometryFrame

__all__ = [
    "ConnectivityMode",
    "GsoProtectionPolicy",
    "SnapshotGraph",
    "beam_limited_edge_mask",
    "isl_grazing_altitude_m",
    "gso_compliant_edge_mask",
]

#: Edge-kind codes in the edge table.
_KIND_GT_SAT = 0
_KIND_ISL = 1
_KIND_FIBER = 2


@dataclass(frozen=True)
class GsoProtectionPolicy:
    """GSO arc-avoidance constraint on GT-satellite links (Section 7).

    When applied, a GT may only use a satellite whose sky direction keeps
    at least ``min_separation_deg`` angular separation from every visible
    point of the geostationary arc. ``lat_bin_deg`` controls the
    precomputation granularity (the arc's ENU geometry depends only on
    the GT's latitude).
    """

    min_separation_deg: float
    lat_bin_deg: float = 1.0

    def __post_init__(self):
        if self.min_separation_deg < 0:
            raise ValueError("min_separation_deg must be non-negative")
        if self.lat_bin_deg <= 0:
            raise ValueError("lat_bin_deg must be positive")


class ConnectivityMode(Enum):
    """Which link families the network may use (paper Section 3).

    ``BP_ONLY``
        No ISLs; paths zig-zag between satellites and ground relays.
    ``HYBRID``
        Ground hops *and* ISLs; the routing picks freely (the paper's
        "hybrid" network).
    ``ISL_ONLY``
        Meant as ISLs plus exactly one up and one down radio hop, for
        the Section 6 attenuation analysis, which excludes intermediate
        GTs. Today the graph is HYBRID's, and nothing checks that its
        paths have no intermediate GT: a ground bounce is sometimes the
        shorter route, and at t = 0 on the small scale 49 of 120 ISL
        paths pass through another city GT. ROADMAP.md item 1 holds the
        fix (a graph with no ground transit, plus a guard).
    """

    BP_ONLY = "bp"
    HYBRID = "hybrid"
    ISL_ONLY = "isl"

    @property
    def uses_isls(self) -> bool:
        return self is not ConnectivityMode.BP_ONLY


@dataclass
class SnapshotGraph:
    """One time snapshot of the network.

    Edges are undirected and stored once; ``matrix()`` symmetrizes.
    Distances are metres. Every graph holds its edges in two parts:

    * ``sat_rows``: the GT-satellite rows as a CSR by satellite,
      ``(start, gt, dist_m)``. Satellite ``s`` owns rows
      ``start[s]:start[s + 1]``; ``gt`` holds GT station indices and
      ``dist_m`` slant lengths. Unfiltered engine graphs share their
      frame's own arrays here.
    * ``isl_fiber_rows``: the ISL and fiber rows, ``(edges, dist_m,
      kind)``, with int64 node-id pairs and int8 ``_KIND_*`` codes.

    ``frame`` is the engine frame the graph was assembled from (faults
    keep it), else ``None``. The physical edge table ``edges``,
    ``edge_dist_m`` and ``edge_kind`` (the GT-satellite rows stored
    ``(satellite, GT node)`` in CSR order, then the ISL/fiber block) is
    a view derived from the parts on first read and kept. Caches, built
    on first use: :meth:`matrix` with the edge id of each entry (routing's
    one hop/edge index), :meth:`contracted_matrix` and the
    :meth:`edge_capacities` tables. Both matrices assemble from the parts,
    so neither routing nor an RTT sweep builds the table. The caches and
    the contraction memo handle are not constructor fields, so
    ``dataclasses.replace`` on the parts gives a graph that derives
    everything afresh.
    """

    time_s: float
    mode: ConnectivityMode
    num_sats: int
    num_gts: int
    sat_ecef: np.ndarray
    gt_ecef: np.ndarray
    stations: StationTable
    sat_rows: tuple = field(repr=False)
    isl_fiber_rows: tuple = field(repr=False)
    frame: GeometryFrame | None = field(default=None, repr=False)

    #: The key of this graph's contracted radio block in ``frame``'s
    #: memo, set by the engine for graphs whose GT-satellite rows are the
    #: frame's under that key's filters; ``None`` contracts its own rows.
    _radio_key: tuple | None = field(default=None, init=False, repr=False)
    _matrix_cache: sparse.csr_matrix | None = field(
        default=None, init=False, repr=False
    )
    #: Set with the matrix: per entry, in ``data`` order, its row-major
    #: key (ascending) and its edge id; per edge, its two positions.
    _entry_index: "tuple[np.ndarray, np.ndarray, np.ndarray] | None" = field(
        default=None, init=False, repr=False
    )
    _edge_caps_cache: dict | None = field(default=None, init=False, repr=False)
    _contracted_cache: sparse.csr_matrix | None = field(
        default=None, init=False, repr=False
    )

    @property
    def num_nodes(self) -> int:
        return self.num_sats + self.num_gts

    @property
    def num_edges(self) -> int:
        return len(self.sat_rows[1]) + len(self.isl_fiber_rows[0])

    @cached_property
    def edges(self) -> np.ndarray:
        """``(m, 2)`` int64 node ids of the physical edge table."""
        start, gts, _ = self.sat_rows
        other = self.isl_fiber_rows[0]
        radio = len(gts)
        edges = np.empty((radio + len(other), 2), dtype=np.int64)
        edges[:radio, 0] = np.repeat(
            np.arange(self.num_sats, dtype=np.int64), np.diff(start)
        )
        np.add(gts, self.num_sats, out=edges[:radio, 1], casting="unsafe")
        edges[radio:] = other
        incr("engine.edge_tables")
        return edges

    @cached_property
    def edge_dist_m(self) -> np.ndarray:
        """``(m,)`` float64 lengths of the physical edge table."""
        return np.concatenate([self.sat_rows[2], self.isl_fiber_rows[1]])

    @cached_property
    def edge_kind(self) -> np.ndarray:
        """``(m,)`` int8 ``_KIND_*`` codes of the physical edge table."""
        kinds = np.full(self.num_edges, _KIND_GT_SAT, dtype=np.int8)
        kinds[len(self.sat_rows[1]) :] = self.isl_fiber_rows[2]
        return kinds

    def gt_node(self, gt_index: int) -> int:
        """Graph node id of a GT given its station-table index."""
        if not 0 <= gt_index < self.num_gts:
            raise IndexError(f"GT index {gt_index} out of range")
        return self.num_sats + gt_index

    def is_sat_node(self, node: int) -> bool:
        """Whether a graph node id denotes a satellite."""
        return 0 <= node < self.num_sats

    def edge_capacities(self, capacities: LinkCapacities) -> np.ndarray:
        """Per-edge capacity array for a capacity assignment, bits/s.

        Memoized per capacity assignment (capacity sweeps and multi-k
        evaluations ask for the same table repeatedly); treat the
        returned array as read-only.
        """
        key = (capacities.gt_sat_bps, capacities.isl_bps, capacities.fiber_bps)
        if self._edge_caps_cache is None:
            self._edge_caps_cache = {}
        caps = self._edge_caps_cache.get(key)
        if caps is None:
            caps = np.where(
                self.edge_kind == _KIND_ISL, capacities.isl_bps, capacities.gt_sat_bps
            )
            caps = np.where(self.edge_kind == _KIND_FIBER, capacities.fiber_bps, caps)
            caps = caps.astype(float)
            self._edge_caps_cache[key] = caps
        return caps

    def matrix(self) -> sparse.csr_matrix:
        """Symmetric CSR distance matrix (metres) over all nodes.

        Entry id ``e`` is edge ``e`` read ``edges[e, 0] -> edges[e, 1]``
        and ``e + num_edges`` its reverse; one CSR build over the entry
        ids, assembled from the parts, sorts them into (row, column)
        order and so gives the routing lookups. Raises
        :class:`ValueError` on a repeated edge or a self-loop.
        """
        if self._matrix_cache is None:
            start, gts, radio_m = self.sat_rows
            block, block_m, _ = self.isl_fiber_rows
            n, m = self.num_nodes, self.num_edges
            u = np.concatenate([
                np.repeat(np.arange(self.num_sats, dtype=np.int64), np.diff(start)),
                block[:, 0],
            ])
            v = np.concatenate([gts.astype(np.int64) + self.num_sats, block[:, 1]])
            ids = sparse.csr_matrix(
                (np.arange(2 * m), (np.concatenate([u, v]), np.concatenate([v, u]))),
                shape=(n, n),
            )
            if ids.nnz != 2 * m:
                raise ValueError("a repeated edge or self-loop shares a CSR entry")
            entry = ids.data
            edge = np.where(entry < m, entry, entry - m)
            position = np.empty_like(entry)
            position[entry] = np.arange(2 * m)
            rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(ids.indptr))
            self._entry_index = (rows * n + ids.indices, edge, position.reshape(2, m).T)
            dist_m = np.concatenate([radio_m, block_m])
            self._matrix_cache = sparse.csr_matrix(
                (dist_m[edge], ids.indices, ids.indptr), shape=(n, n)
            )
        return self._matrix_cache

    def contracted_matrix(self) -> sparse.csr_matrix:
        """Symmetric CSR distances over satellites + cities only.

        Relays and aircraft (station indices ``>= city_count``) are
        replaced by satellite-satellite bounce edges (see
        :mod:`repro.network.contraction`), so node ids of satellites and
        cities are unchanged and every shortest distance between them
        equals the one on :meth:`matrix`. The contracted radio block
        (city GT-satellite edges plus bounce edges) comes from the
        frame's memo when the engine gave this graph a memo handle, else
        from this graph's own GT-satellite rows; the ISL/fiber block is
        then merged into it. The edge table is never built here. A
        bounce edge parallel to an ISL keeps the shorter of the two. RTT
        sweeps run Dijkstra here; paths and routing use the physical
        :meth:`matrix`.
        """
        if self._contracted_cache is None:
            kept = self.num_sats + self.stations.city_count
            if self._radio_key is None:
                block = self._contract_radio()
            else:
                block = self.frame.contracted_radio(
                    self._radio_key, self._contract_radio
                )
            edges, dists, _ = self.isl_fiber_rows
            if len(edges):
                if edges.max() >= kept:
                    raise ValueError(
                        "a relay or aircraft has a non-satellite neighbour"
                    )
                block = min_per_pair(
                    np.concatenate([block[0], edges[:, 0]]),
                    np.concatenate([block[1], edges[:, 1]]),
                    np.concatenate([block[2], dists]),
                )
            u, v, w = block
            row = np.concatenate([u, v])
            col = np.concatenate([v, u])
            self._contracted_cache = sparse.csr_matrix(
                (np.concatenate([w, w]), (row, col)), shape=(kept, kept)
            )
        return self._contracted_cache

    def _contract_radio(self):
        """This graph's contracted radio block, from its GT-satellite rows.

        One counting-sort transpose turns the CSR by satellite into the
        by-GT view, in which each GT's satellites come out ascending.
        Cities are GTs ``[0, city_count)``: their rows stay edges, and
        the rows of every later GT (relays, aircraft) become bounce
        edges. Returns ``(lo, hi, w)`` with one minimum per node pair,
        sorted by ``(lo, hi)``.
        """
        with span("transit_contraction"):
            incr("engine.contraction_misses")
            start, gts, dists = self.sat_rows
            by_gt = sparse.csr_matrix(
                (dists, gts, start), shape=(self.num_sats, self.num_gts)
            ).tocsc()
            indptr, sats, dists = by_gt.indptr, by_gt.indices, by_gt.data
            city_count = self.stations.city_count
            bounce = bounce_edges(indptr[city_count:], sats, dists, self.num_sats)
            end = indptr[city_count]
            cities = np.repeat(
                np.arange(self.num_sats, self.num_sats + city_count, dtype=np.int64),
                np.diff(indptr[: city_count + 1]),
            )
            return min_per_pair(
                np.concatenate([sats[:end], bounce[0]]),
                np.concatenate([cities, bounce[1]]),
                np.concatenate([dists[:end], bounce[2]]),
            )

    def edge_ids_for_pairs(self, u, v) -> np.ndarray:
        """Edge ids for arrays of (u, v) node pairs, in either direction.

        One binary search over the row-major keys of :meth:`matrix`'s
        entries, then each entry's edge id. Raises :class:`KeyError`
        when any pair is not an edge of this snapshot.
        """
        self.matrix()
        keys, edge, _ = self._entry_index
        wanted = np.asarray(u, dtype=np.int64) * self.num_nodes + np.asarray(
            v, dtype=np.int64
        )
        pos = np.searchsorted(keys, wanted)
        if wanted.size and not (
            keys.size and np.array_equal(keys.take(pos, mode="clip"), wanted)
        ):
            raise KeyError("node pair is not an edge of this snapshot")
        return edge[pos]

    def entry_edge_ids(self) -> np.ndarray:
        """Edge id of each :meth:`matrix` entry, in ``data`` order.

        Treat the returned array as read-only.
        """
        self.matrix()
        return self._entry_index[1]

    def edge_csr_positions(self, edge_ids) -> np.ndarray:
        """Positions in ``matrix().data`` of both directed entries per edge.

        For edge id ``e`` between nodes (u, v) the result holds the data
        positions of (u, v) and (v, u), interleaved per edge — the exact
        slots the disjoint-path search deletes and restores.
        """
        self.matrix()
        return self._entry_index[2][np.asarray(edge_ids, dtype=np.int64)].reshape(-1)

    def satellite_component_stats(self) -> dict:
        """Connectivity stats for Section 5's disconnected-satellite count.

        Returns the number of satellites outside the largest connected
        component ("entirely disconnected from the rest of the network" in
        BP terms) plus the raw component labelling.
        """
        n_components, labels = csgraph.connected_components(
            self.matrix(), directed=False
        )
        sizes = np.bincount(labels, minlength=n_components)
        giant = int(np.argmax(sizes))
        sat_labels = labels[: self.num_sats]
        disconnected = int(np.sum(sat_labels != giant))
        return {
            "num_components": int(n_components),
            "giant_component_size": int(sizes[giant]),
            "disconnected_satellites": disconnected,
            "disconnected_fraction": disconnected / max(self.num_sats, 1),
        }


def isl_grazing_altitude_m(a_ecef: np.ndarray, b_ecef: np.ndarray) -> np.ndarray:
    """Lowest altitude above the spherical Earth along straight links, metres.

    ``a_ecef`` and ``b_ecef`` are the links' endpoints, shape ``(..., 3)``.
    A segment ``a + t (b - a)`` passes closest to Earth's centre at
    ``t = clip(-a . (b - a) / |b - a|^2, 0, 1)``; for two satellites of
    one shell that is the midpoint, and the ECEF form covers links
    between shells too. ISLs must stay above about 80 km to avoid
    atmospheric effects (paper Section 2).
    """
    a = np.asarray(a_ecef, dtype=float)
    delta = np.asarray(b_ecef, dtype=float) - a
    length_sq = np.sum(delta * delta, axis=-1)
    t = np.clip(
        -np.sum(a * delta, axis=-1) / np.where(length_sq == 0.0, 1.0, length_sq),
        0.0,
        1.0,
    )
    return np.linalg.norm(a + t[..., None] * delta, axis=-1) - EARTH_RADIUS


def gso_compliant_edge_mask(
    gt_lats: np.ndarray,
    gt_lons: np.ndarray,
    gt_ecef: np.ndarray,
    sat_ecef: np.ndarray,
    edge_gt_index: np.ndarray,
    edge_sat_index: np.ndarray,
    policy: GsoProtectionPolicy,
) -> np.ndarray:
    """Which GT-satellite edges respect the GSO separation policy.

    Vectorized: per-edge ENU sky directions are computed in one shot;
    the GSO-arc direction sets (latitude-dependent only) are precomputed
    per latitude bin and compared by dot product.
    """
    if len(edge_gt_index) == 0:
        return np.ones(0, dtype=bool)
    gt_pos = gt_ecef[edge_gt_index]
    los = sat_ecef[edge_sat_index] - gt_pos
    los = los / np.linalg.norm(los, axis=1, keepdims=True)

    lats = np.radians(gt_lats[edge_gt_index])
    lons = np.radians(gt_lons[edge_gt_index])
    sin_lat, cos_lat = np.sin(lats), np.cos(lats)
    sin_lon, cos_lon = np.sin(lons), np.cos(lons)
    east = np.stack([-sin_lon, cos_lon, np.zeros_like(lons)], axis=1)
    north = np.stack([-sin_lat * cos_lon, -sin_lat * sin_lon, cos_lat], axis=1)
    up = np.stack([cos_lat * cos_lon, cos_lat * sin_lon, sin_lat], axis=1)
    directions = np.stack(
        [
            np.sum(los * east, axis=1),
            np.sum(los * north, axis=1),
            np.sum(los * up, axis=1),
        ],
        axis=1,
    )

    cos_limit = np.cos(np.radians(policy.min_separation_deg))
    bins = np.round(gt_lats[edge_gt_index] / policy.lat_bin_deg).astype(int)
    compliant = np.ones(len(edge_gt_index), dtype=bool)
    for bin_value in np.unique(bins):
        arc = gso_arc_directions_enu(bin_value * policy.lat_bin_deg)
        members = bins == bin_value
        if len(arc) == 0:
            continue  # No GSO arc visible: unconstrained.
        max_cos = np.max(directions[members] @ arc.T, axis=1)
        compliant[members] = max_cos < cos_limit
    return compliant


def beam_limited_edge_mask(
    edge_sat_index: np.ndarray,
    edge_dist_m: np.ndarray,
    max_gts_per_satellite: int,
) -> np.ndarray:
    """Which GT-satellite edges survive a per-satellite beam limit.

    Per satellite, the ``max_gts_per_satellite`` closest GTs (slant
    distance) are kept. Stable lexsort by (satellite, distance), then
    rank within satellite. Callers must apply any compliance filters
    (GSO arc avoidance) *before* this ranking: a dropped edge must not
    consume a beam.
    """
    if max_gts_per_satellite < 1:
        raise ValueError("max_gts_per_satellite must be >= 1")
    order = np.lexsort((edge_dist_m, edge_sat_index))
    sorted_sats = edge_sat_index[order]
    # Rank of each entry within its satellite group.
    group_start = np.concatenate([[0], np.nonzero(np.diff(sorted_sats))[0] + 1])
    ranks = np.arange(len(order))
    ranks = ranks - np.repeat(
        group_start, np.diff(np.concatenate([group_start, [len(order)]]))
    )
    keep_sorted = ranks < max_gts_per_satellite
    keep = np.zeros(len(edge_sat_index), dtype=bool)
    keep[order[keep_sorted]] = True
    return keep
