"""The monolithic snapshot-graph builder: the engine's test reference.

:func:`build_snapshot_graph` recomputes all geometry from scratch with a
per-satellite ``query_ball_point``, the plain way the layered
:class:`repro.core.engine.SnapshotEngine` must agree with bit for bit
(``tests/test_engine.py::TestNumericalEquivalence``).
:func:`graph_from_rows` turns an explicit edge table into a
:class:`~repro.network.graph.SnapshotGraph`; the reference and the
hand-built test graphs go through it.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from repro.constants import EARTH_RADIUS
from repro.ground.stations import StationTable
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
from repro.orbits.constellation import Constellation
from repro.orbits.coordinates import geodetic_to_ecef
from repro.orbits.visibility import coverage_central_angle_rad


def build_snapshot_graph(
    constellation: Constellation,
    stations: StationTable,
    time_s: float,
    mode: ConnectivityMode = ConnectivityMode.HYBRID,
    gso_policy: GsoProtectionPolicy | None = None,
    fiber_max_km: float | None = None,
    max_gts_per_satellite: int | None = None,
) -> SnapshotGraph:
    """Build the network graph for one snapshot, monolithically.

    Every call recomputes all geometry from scratch: one
    ``query_ball_point`` over the GTs per shell, the GSO filter, slant
    ranges by ``np.linalg.norm``, the beam limit, then ISL and fiber
    rows. Faults are not applied here.
    """
    sat_ecef = constellation.positions_ecef(time_s)
    gt_ecef = geodetic_to_ecef(stations.lats, stations.lons, stations.altitudes)
    num_sats = len(sat_ecef)
    num_gts = len(gt_ecef)

    gt_units = geodetic_to_ecef(stations.lats, stations.lons, 0.0) / EARTH_RADIUS
    tree = cKDTree(gt_units)

    edge_u: list[np.ndarray] = []
    edge_v: list[np.ndarray] = []
    offsets = constellation.shell_offsets()
    for offset, shell in zip(offsets, constellation.shells):
        psi = coverage_central_angle_rad(shell.altitude_m, shell.min_elevation_deg)
        chord = 2.0 * np.sin(psi / 2.0)
        shell_sats = sat_ecef[offset : offset + shell.num_satellites]
        sat_units = shell_sats / np.linalg.norm(shell_sats, axis=1, keepdims=True)
        neighbour_lists = tree.query_ball_point(sat_units, r=chord)
        for local_idx, gt_indices in enumerate(neighbour_lists):
            if not gt_indices:
                continue
            gts = np.asarray(gt_indices, dtype=np.int64)
            edge_u.append(np.full(len(gts), offset + local_idx, dtype=np.int64))
            edge_v.append(gts + num_sats)

    if edge_u:
        u = np.concatenate(edge_u)
        v = np.concatenate(edge_v)
    else:
        u = np.empty(0, dtype=np.int64)
        v = np.empty(0, dtype=np.int64)
    gt_sat_edges = np.stack([u, v], axis=1)

    if gso_policy is not None and len(gt_sat_edges):
        compliant = gso_compliant_edge_mask(
            stations.lats,
            stations.lons,
            gt_ecef,
            sat_ecef,
            gt_sat_edges[:, 1] - num_sats,
            gt_sat_edges[:, 0],
            gso_policy,
        )
        gt_sat_edges = gt_sat_edges[compliant]

    gt_sat_dists = np.linalg.norm(
        sat_ecef[gt_sat_edges[:, 0]] - gt_ecef[gt_sat_edges[:, 1] - num_sats], axis=1
    ) if len(gt_sat_edges) else np.empty(0)

    if max_gts_per_satellite is not None and len(gt_sat_edges):
        keep = beam_limited_edge_mask(
            gt_sat_edges[:, 0], gt_sat_dists, max_gts_per_satellite
        )
        gt_sat_edges = gt_sat_edges[keep]
        gt_sat_dists = gt_sat_dists[keep]

    edge_blocks = [gt_sat_edges.reshape(-1, 2)]
    dist_blocks = [gt_sat_dists]

    if mode.uses_isls:
        isl_edges = constellation_isl_edges(constellation)
        edge_blocks.append(isl_edges)
        dist_blocks.append(isl_lengths_m(isl_edges, sat_ecef))

    if fiber_max_km is not None and stations.city_count >= 2:
        city_edges, fiber_dists = city_fiber_edges(
            stations.lats[: stations.city_count],
            stations.lons[: stations.city_count],
            fiber_max_km,
        )
        if len(city_edges):
            edge_blocks.append(city_edges + num_sats)
            dist_blocks.append(fiber_dists)

    return graph_from_rows(
        np.vstack(edge_blocks),
        np.concatenate(dist_blocks),
        num_sats=num_sats,
        stations=stations,
        mode=mode,
        time_s=time_s,
        sat_ecef=sat_ecef,
        gt_ecef=gt_ecef,
    )


def graph_from_rows(
    edges,
    dist_m,
    *,
    num_sats: int,
    stations: StationTable,
    mode: ConnectivityMode = ConnectivityMode.BP_ONLY,
    time_s: float = 0.0,
    sat_ecef: np.ndarray | None = None,
    gt_ecef: np.ndarray | None = None,
) -> SnapshotGraph:
    """A frameless graph from ``(u, v)`` node-id rows and their lengths.

    A row joining a satellite and a GT goes into the CSR by satellite,
    stored ``(satellite, GT)`` and ordered by (satellite, GT), the row
    order engine graphs keep and the strict guard checks. Every other row goes into the ISL/fiber block in input
    order: an ISL when both ends are satellites, fiber otherwise.
    Positions default to all-ones rows (hand-built graphs have no
    geometry).
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    dist_m = np.asarray(dist_m, dtype=float)
    is_sat = edges < num_sats
    radio = is_sat[:, 0] != is_sat[:, 1]
    rows = np.sort(edges[radio], axis=1)  # satellite ids come first
    order = np.lexsort((rows[:, 1], rows[:, 0]))
    rows = rows[order]
    other = ~radio
    kinds = np.where(is_sat[other].all(axis=1), _KIND_ISL, _KIND_FIBER)
    num_gts = stations.total
    return SnapshotGraph(
        time_s=time_s,
        mode=mode,
        num_sats=num_sats,
        num_gts=num_gts,
        sat_ecef=np.ones((num_sats, 3)) if sat_ecef is None else sat_ecef,
        gt_ecef=np.ones((num_gts, 3)) if gt_ecef is None else gt_ecef,
        stations=stations,
        sat_rows=(
            np.searchsorted(rows[:, 0], np.arange(num_sats + 1)),
            (rows[:, 1] - num_sats).astype(np.int32),
            dist_m[radio][order],
        ),
        isl_fiber_rows=(edges[other], dist_m[other], kinds.astype(np.int8)),
    )
