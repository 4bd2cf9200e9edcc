"""Result invariant guards: cheap post-compute sanity checks.

A wrong RTT distribution is worse than a crashed sweep — it silently
changes the paper's figures. These guards assert physical invariants on
the pipeline's products the moment they are computed:

* RTTs are finite-or-``inf`` (unreachable), never negative or NaN, and
  never below the speed-of-light bound set by the straight-line chord
  between the two cities — a provable floor for *any* relayed path;
* hybrid RTTs never exceed BP's for the same cell, and hybrid reaches
  every cell BP reaches: its graph holds BP's edges plus ISLs;
* snapshot graphs are checked on their two parts, the satellite CSR
  ``sat_rows`` and the ISL/fiber block, never on the derived edge
  table: monotone offsets, in-range GTs ascending within each
  satellite, finite positive lengths, and a block with no self-loop
  or repeated row; a graph with a frame also obeys its physics
  (lengths match positions, block kinds match endpoints, BP has no
  ISL, no radio link beyond its shell's slant range, ISLs clear the
  atmosphere);
* routed sub-flows run between their pair's cities over exactly the
  edges they name, carry the left-fold length of those edges, and the
  sub-flows of one pair share no edge;
* max-min allocations are feasible: rates finite and non-negative,
  no link loaded past its capacity.

Checks run when *strict mode* is on — the ``strict`` field of the run
context (:mod:`repro.context`), set by ``repro run --strict`` and for
the whole test suite (see ``tests/conftest.py``) — so production
sweeps can opt into them while default interactive runs stay lean.
A violation raises :class:`InvariantViolation` naming the failing
invariant and the offending index.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.constants import EARTH_RADIUS, SPEED_OF_LIGHT

if TYPE_CHECKING:  # runtime import would cycle through repro.core
    from repro.core.pipeline import RttSeries
    from repro.flows.routing import RoutedTraffic
    from repro.network.graph import SnapshotGraph

__all__ = [
    "InvariantViolation",
    "check_allocation",
    "check_cross_mode_rtt",
    "check_graph",
    "check_routing",
    "check_rtt_series",
    "rtt_lower_bound_ms",
]

#: Relative tolerance between a sub-flow's recorded length and the sum
#: of its edges' distances.
_LENGTH_RTOL = 1e-9

#: Relative slack on the RTT lower bound — covers float accumulation in
#: the haversine/chord conversion, nothing physical.
_RTT_BOUND_RTOL = 1e-6

#: Relative slack of an edge length against its endpoints' distance.
_EDGE_LENGTH_RTOL = 1e-12

#: Relative slack of a GT-satellite length against its shell's slant
#: range: a GT exactly on the coverage cone may land a few ulps beyond.
_SLANT_RTOL = 1e-9

#: Lowest altitude an ISL's straight segment may pass above the
#: spherical Earth: the paper's ~80 km atmosphere (Section 2), the same
#: floor behind Hypatia's 5,016,591 m ISL limit at 550 km.
_ISL_MIN_ALTITUDE_M = 80e3

#: Relative slack of hybrid <= BP: the two modes' distances are sums
#: over different graphs, which may round apart in the last ulp.
_CROSS_MODE_RTOL = 1e-12


class InvariantViolation(RuntimeError):
    """A computed result violates a physical or accounting invariant."""


# --- Invariants --------------------------------------------------------------


def rtt_lower_bound_ms(great_circle_m: np.ndarray) -> np.ndarray:
    """Provable per-pair RTT floor, ms, from great-circle distances.

    Any piecewise-straight radio path between two ground points is at
    least as long as the straight-line chord between them; the chord for
    a surface (haversine) distance ``d`` is ``2R sin(d / 2R)``. Using
    the chord (not the arc) keeps the bound incontrovertible: satellite
    paths cut across the arc and may beat it, but never the chord.
    """
    arc = np.asarray(great_circle_m, dtype=float)
    chord = 2.0 * EARTH_RADIUS * np.sin(arc / (2.0 * EARTH_RADIUS))
    return 2e3 * chord / SPEED_OF_LIGHT


def check_rtt_series(series: "RttSeries", pairs=None, source: str = "rtt") -> None:
    """Validate an :class:`RttSeries` against its physical invariants.

    ``pairs`` (optional, the scenario's :class:`CityPair` list) enables
    the per-pair speed-of-light lower bound; without it only shape,
    sign, and NaN checks run. ``source`` labels the series in errors.
    """
    rtt = np.asarray(series.rtt_ms, dtype=float)
    if rtt.ndim != 2:
        raise InvariantViolation(
            f"{source}: rtt_ms must be 2-D (pairs x snapshots), got {rtt.shape}"
        )
    if len(series.times_s) != rtt.shape[1]:
        raise InvariantViolation(
            f"{source}: {rtt.shape[1]} snapshot columns but "
            f"{len(series.times_s)} snapshot times"
        )
    if np.isnan(rtt).any():
        pair, snap = np.argwhere(np.isnan(rtt))[0]
        raise InvariantViolation(
            f"{source}: NaN RTT at pair {pair}, snapshot {snap} "
            "(unreachable must be inf, not NaN)"
        )
    if (rtt < 0).any():
        pair, snap = np.argwhere(rtt < 0)[0]
        raise InvariantViolation(
            f"{source}: negative RTT {rtt[pair, snap]:g} ms at "
            f"pair {pair}, snapshot {snap}"
        )
    if pairs is not None:
        if len(pairs) != rtt.shape[0]:
            raise InvariantViolation(
                f"{source}: series holds {rtt.shape[0]} pairs, "
                f"scenario has {len(pairs)}"
            )
        bound = rtt_lower_bound_ms(np.array([p.distance_m for p in pairs]))
        finite = np.isfinite(rtt)
        below = finite & (rtt < bound[:, None] * (1.0 - _RTT_BOUND_RTOL))
        if below.any():
            pair, snap = np.argwhere(below)[0]
            raise InvariantViolation(
                f"{source}: RTT {rtt[pair, snap]:.3f} ms at pair {pair}, "
                f"snapshot {snap} beats the speed-of-light floor "
                f"{bound[pair]:.3f} ms (chord distance "
                f"{pairs[pair].distance_m / 1e3:.0f} km great-circle)"
            )


def check_cross_mode_rtt(
    bp: "RttSeries", hybrid: "RttSeries", source: str = "rtt"
) -> None:
    """Hybrid is never slower than BP, nor unreachable where BP reaches.

    Both series must cover the same (pair, snapshot) grid. Hybrid's
    graph holds BP's edges plus ISLs, so every cell with a finite BP
    RTT needs ``hybrid <= BP * (1 + 1e-12)``; a violation means the
    two modes were built from different ground segments or filters.
    """
    bp_rtt = np.asarray(bp.rtt_ms, dtype=float)
    hybrid_rtt = np.asarray(hybrid.rtt_ms, dtype=float)
    if bp_rtt.shape != hybrid_rtt.shape:
        raise InvariantViolation(
            f"{source}: BP series is {bp_rtt.shape} but hybrid is {hybrid_rtt.shape}"
        )
    worse = np.isfinite(bp_rtt) & ~(hybrid_rtt <= bp_rtt * (1.0 + _CROSS_MODE_RTOL))
    if worse.any():
        pair, snap = np.argwhere(worse)[0]
        raise InvariantViolation(
            f"{source}: hybrid RTT {hybrid_rtt[pair, snap]:g} ms exceeds BP "
            f"{bp_rtt[pair, snap]:g} ms at pair {pair}, snapshot {snap}"
        )


def check_graph(graph: "SnapshotGraph", source: str = "graph") -> None:
    """Validate a snapshot graph's two parts, and its physics if it has a frame.

    Structure, on every graph:

    * ``sat_rows`` offsets start at 0, never decrease and end at the
      row count; every ``gt`` is a station index in ``[0, num_gts)``;
    * every length in both parts is finite and positive;
    * within each satellite's rows the GTs strictly ascend (the frame's
      row-order contract, which filters and faults keep), so a repeated
      radio row sits beside its twin;
    * the ISL/fiber block has no self-loop, no repeated undirected row
      and no row that repeats a radio row.

    Physics, on a graph with a frame (engine-built or faulted):

    * block rows are ISLs between two satellites or fiber between two
      cities, and a BP graph has no ISL (a radio row is a (satellite,
      GT) row by construction);
    * radio and ISL lengths equal the distance between their endpoints'
      ECEF positions (relative 1e-12), and a fiber row is at least that
      chord;
    * no radio row is longer than its satellite's
      ``frame.radio_range_m``, its shell's slant range at the minimum
      elevation;
    * every ISL's straight segment passes at least 80 km above the
      spherical Earth.

    Messages name rows by their index in the derived edge table:
    radio row ``i`` is edge ``i`` and block row ``j`` edge
    ``len(gt) + j``.
    """
    from repro.network.graph import (
        _KIND_FIBER,
        _KIND_ISL,
        ConnectivityMode,
        isl_grazing_altitude_m,
    )

    num_sats, num_gts, num_nodes = graph.num_sats, graph.num_gts, graph.num_nodes
    start, gts, radio_m = (np.asarray(part) for part in graph.sat_rows)
    block, block_m, kinds = (np.asarray(part) for part in graph.isl_fiber_rows)
    radio = len(gts)
    if (
        len(start) != num_sats + 1
        or len(radio_m) != radio
        or block.shape != (len(block_m), 2)
        or len(kinds) != len(block_m)
    ):
        raise InvariantViolation(
            f"{source}: graph parts disagree: {len(start)} offsets for "
            f"{num_sats} satellites, {radio} GTs, {len(radio_m)} radio lengths, "
            f"{block.shape} block rows, {len(block_m)} lengths, {len(kinds)} kinds"
        )
    counts = np.diff(start)
    if start[0] != 0 or start[-1] != radio or (counts < 0).any():
        raise InvariantViolation(
            f"{source}: satellite row offsets do not rise from 0 to {radio}"
        )
    if radio and (gts.min() < 0 or gts.max() >= num_gts):
        bad = int(np.argmax((gts < 0) | (gts >= num_gts)))
        raise InvariantViolation(
            f"{source}: edge {bad} references GT {int(gts[bad])} outside "
            f"[0, {num_gts})"
        )
    if len(block) and (block.min() < 0 or block.max() >= num_nodes):
        bad = int(np.argmax(((block < 0) | (block >= num_nodes)).any(axis=1)))
        raise InvariantViolation(
            f"{source}: edge {radio + bad} references node outside "
            f"[0, {num_nodes})"
        )
    for offset, lengths in ((0, radio_m), (radio, block_m)):
        if len(lengths) and not (lengths.min() > 0 and lengths.max() < np.inf):
            bad = int(np.argmax(~(np.isfinite(lengths) & (lengths > 0))))
            raise InvariantViolation(
                f"{source}: edge {offset + bad} has non-finite or non-positive "
                f"length {float(lengths[bad])!r} m"
            )
    # A duplicate would be summed into one CSR entry by matrix(), and
    # routing restores deleted entries assuming unique edges.
    if radio > 1:
        unordered = np.diff(gts) <= 0
        cuts = start[1:-1]
        unordered[cuts[(cuts > 0) & (cuts < radio)] - 1] = False
        if unordered.any():
            bad = int(np.argmax(unordered))
            sat = int(np.searchsorted(start, bad, "right")) - 1
            gt, after = int(gts[bad]), int(gts[bad + 1])
            if gt == after:
                raise InvariantViolation(
                    f"{source}: edges {bad} and {bad + 1} both join nodes "
                    f"{sat} and {num_sats + gt}"
                )
            raise InvariantViolation(
                f"{source}: edges {bad} and {bad + 1} of satellite {sat} hold "
                f"GTs {gt} then {after}, out of ascending order"
            )
    lo, hi = block.min(axis=1), block.max(axis=1)
    if (lo == hi).any():
        bad = int(np.argmax(lo == hi))
        raise InvariantViolation(
            f"{source}: edge {radio + bad} is a self-loop at node {lo[bad]}"
        )
    keys = lo.astype(np.int64) * num_nodes + hi
    order = np.argsort(keys, kind="stable")
    repeated = np.flatnonzero(keys[order][1:] == keys[order][:-1])
    if repeated.size:
        first, second = order[repeated[0]], order[repeated[0] + 1]
        raise InvariantViolation(
            f"{source}: edges {radio + first} and {radio + second} both join "
            f"nodes {lo[first]} and {hi[first]}"
        )
    for row in np.flatnonzero((lo < num_sats) & (hi >= num_sats)):
        sat, gt = int(lo[row]), int(hi[row]) - num_sats
        first, end = start[sat], start[sat + 1]
        twin = first + int(np.searchsorted(gts[first:end], gt))
        if twin < end and gts[twin] == gt:
            raise InvariantViolation(
                f"{source}: edges {twin} and {radio + row} both join nodes "
                f"{sat} and {num_sats + gt}"
            )
    for name, ecef, count in (
        ("sat_ecef", graph.sat_ecef, num_sats),
        ("gt_ecef", graph.gt_ecef, num_gts),
    ):
        arr = np.asarray(ecef, dtype=float)
        if len(arr) != count:
            raise InvariantViolation(
                f"{source}: {name} holds {len(arr)} rows, expected {count}"
            )
        if len(arr) and not np.isfinite(arr).all():
            bad = int(np.argmax(~np.isfinite(arr).all(axis=1)))
            raise InvariantViolation(
                f"{source}: non-finite position in {name} row {bad}"
            )
    if graph.frame is None:
        return

    isl, fiber = kinds == _KIND_ISL, kinds == _KIND_FIBER
    matches = (isl & (hi < num_sats)) | (
        fiber & (lo >= num_sats) & (hi < num_sats + graph.stations.city_count)
    )
    if not matches.all():
        bad = int(np.argmin(matches))
        raise InvariantViolation(
            f"{source}: edge {radio + bad} of kind {int(kinds[bad])} joins nodes "
            f"{int(block[bad, 0])} and {int(block[bad, 1])}, which that kind "
            "cannot join"
        )
    if graph.mode is ConnectivityMode.BP_ONLY and isl.any():
        bad = radio + int(np.argmax(isl))
        raise InvariantViolation(f"{source}: BP graph holds ISL edge {bad}")

    # Radio chords one ECEF axis at a time, the satellite axis repeated
    # over its rows: the same sum as np.linalg.norm over gathered rows,
    # without (E, 3) temporaries.
    chord = np.zeros(radio)
    for sat_axis, gt_axis in zip(graph.sat_ecef.T, graph.gt_ecef.T):
        delta = np.repeat(sat_axis, counts)
        delta -= gt_axis.take(gts)
        delta *= delta
        chord += delta
    np.sqrt(chord, out=chord)
    wrong = np.abs(radio_m - chord) > _EDGE_LENGTH_RTOL * chord
    if wrong.any():
        bad = int(np.argmax(wrong))
        raise InvariantViolation(
            f"{source}: edge {bad} has length {float(radio_m[bad])!r} m, not equal "
            f"to the {float(chord[bad])!r} m between its endpoints"
        )
    positions = np.concatenate([graph.sat_ecef, graph.gt_ecef])
    chord = np.linalg.norm(positions[block[:, 0]] - positions[block[:, 1]], axis=1)
    wrong = np.where(
        fiber,
        block_m < chord * (1.0 - _EDGE_LENGTH_RTOL),
        np.abs(block_m - chord) > _EDGE_LENGTH_RTOL * chord,
    )
    if wrong.any():
        bad = int(np.argmax(wrong))
        want = "at least" if fiber[bad] else "equal to"
        raise InvariantViolation(
            f"{source}: edge {radio + bad} has length {float(block_m[bad])!r} m, "
            f"not {want} the {float(chord[bad])!r} m between its endpoints"
        )
    limit = np.repeat(np.asarray(graph.frame.radio_range_m, dtype=float), counts)
    beyond = radio_m > limit * (1.0 + _SLANT_RTOL)
    if beyond.any():
        bad = int(np.argmax(beyond))
        sat = int(np.searchsorted(start, bad, "right")) - 1
        raise InvariantViolation(
            f"{source}: GT-satellite edge {bad} is {radio_m[bad] / 1e3:.3f} km "
            f"long, beyond satellite {sat}'s slant range "
            f"{limit[bad] / 1e3:.3f} km"
        )
    links = block[isl]
    altitude = isl_grazing_altitude_m(
        graph.sat_ecef[links[:, 0]], graph.sat_ecef[links[:, 1]]
    )
    grazing = altitude < _ISL_MIN_ALTITUDE_M
    if grazing.any():
        first = int(np.argmax(grazing))
        raise InvariantViolation(
            f"{source}: ISL edge {radio + int(np.flatnonzero(isl)[first])} passes "
            f"{altitude[first] / 1e3:.1f} km above the Earth, below the "
            f"{_ISL_MIN_ALTITUDE_M / 1e3:.0f} km atmosphere floor"
        )


def check_routing(
    graph: "SnapshotGraph",
    pairs,
    routed: "RoutedTraffic",
    source: str = "routing",
) -> None:
    """Validate routed sub-flows against their graph and city pairs.

    Each sub-flow must start and end at its pair's city nodes, name
    exactly the edges joining consecutive path nodes, and carry the
    left-fold sum of those edges' distances as its length; the
    sub-flows of one pair must be pairwise edge-disjoint.
    """
    edges = np.asarray(graph.edges)
    dists = np.asarray(graph.edge_dist_m, dtype=float)
    used_by_pair: dict[int, set] = {}
    for n, flow in enumerate(routed.subflows):
        label = f"{source}: sub-flow {n} (pair {flow.pair_index})"
        pair = pairs[flow.pair_index]
        nodes = np.asarray(flow.path.nodes, dtype=np.int64)
        ends = (graph.num_sats + pair.a, graph.num_sats + pair.b)
        if (int(nodes[0]), int(nodes[-1])) != ends:
            raise InvariantViolation(
                f"{label} runs {int(nodes[0])} -> {int(nodes[-1])}, "
                f"not between its city nodes {ends[0]} -> {ends[1]}"
            )
        ids = np.asarray(flow.edge_ids, dtype=np.int64)
        if len(ids) != len(nodes) - 1:
            raise InvariantViolation(
                f"{label} names {len(ids)} edges for {len(nodes) - 1} hops"
            )
        if len(ids) and (ids.min() < 0 or ids.max() >= len(edges)):
            raise InvariantViolation(f"{label} names an edge id out of range")
        hops = np.sort(np.stack([nodes[:-1], nodes[1:]], axis=1), axis=1)
        joined = (hops == np.sort(edges[ids], axis=1)).all(axis=1)
        if not joined.all():
            hop = int(np.argmin(joined))
            raise InvariantViolation(
                f"{label}: edge {int(ids[hop])} does not join hop {hop} "
                f"({int(nodes[hop])}, {int(nodes[hop + 1])})"
            )
        length = sum(dists[ids].tolist())
        if not abs(flow.path.length_m - length) <= _LENGTH_RTOL * length:
            raise InvariantViolation(
                f"{label} has length {flow.path.length_m!r} m, its edges "
                f"sum to {length!r} m"
            )
        used = used_by_pair.setdefault(flow.pair_index, set())
        shared = used.intersection(ids.tolist())
        if shared:
            raise InvariantViolation(
                f"{label} reuses edge {min(shared)} of an earlier sub-flow "
                "of the same pair"
            )
        used.update(ids.tolist())


def check_allocation(
    rates: np.ndarray,
    link_loads: np.ndarray,
    capacities: np.ndarray,
    source: str = "allocation",
    rtol: float = 1e-9,
) -> None:
    """Validate a max-min allocation: finite, non-negative, feasible.

    Capacity conservation is the accounting invariant: no link may carry
    more than its capacity (beyond float slack).
    """
    rates = np.asarray(rates, dtype=float)
    loads = np.asarray(link_loads, dtype=float)
    caps = np.asarray(capacities, dtype=float)
    if rates.size and not np.isfinite(rates).all():
        bad = int(np.argmax(~np.isfinite(rates)))
        raise InvariantViolation(
            f"{source}: flow {bad} has non-finite rate {rates[bad]!r}"
        )
    if (rates < 0).any():
        bad = int(np.argmax(rates < 0))
        raise InvariantViolation(
            f"{source}: flow {bad} has negative rate {rates[bad]:g}"
        )
    if loads.shape != caps.shape:
        raise InvariantViolation(
            f"{source}: {loads.shape} link loads vs {caps.shape} capacities"
        )
    slack = rtol * np.maximum(caps, 1.0)
    over = loads > caps + slack
    if over.any():
        bad = int(np.argmax(over))
        raise InvariantViolation(
            f"{source}: link {bad} loaded to {loads[bad]:g} over its "
            f"capacity {caps[bad]:g} — capacity not conserved"
        )
