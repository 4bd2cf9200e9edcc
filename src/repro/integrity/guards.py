"""Result invariant guards: cheap post-compute sanity checks.

A wrong RTT distribution is worse than a crashed sweep — it silently
changes the paper's figures. These guards assert physical invariants on
the pipeline's products the moment they are computed:

* RTTs are finite-or-``inf`` (unreachable), never negative or NaN, and
  never below the speed-of-light bound set by the straight-line chord
  between the two cities — a provable floor for *any* relayed path;
* snapshot graphs carry in-range node ids, finite positive edge
  lengths, and no self-loops or duplicate undirected edges;
* routed sub-flows run between their pair's cities over exactly the
  edges they name, carry the left-fold length of those edges, and the
  sub-flows of one pair share no edge;
* max-min allocations are feasible: rates finite and non-negative,
  no link loaded past its capacity.

Checks run when *strict mode* is on — enabled by ``repro run --strict``
and by the whole test suite (see ``tests/conftest.py``) — so production
sweeps can opt into them while default interactive runs stay lean.
A violation raises :class:`InvariantViolation` naming the failing
invariant and the offending index.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.constants import EARTH_RADIUS, SPEED_OF_LIGHT

if TYPE_CHECKING:  # runtime import would cycle through repro.core
    from repro.core.pipeline import RttSeries
    from repro.flows.routing import RoutedTraffic
    from repro.network.graph import SnapshotGraph

__all__ = [
    "InvariantViolation",
    "check_allocation",
    "check_graph",
    "check_routing",
    "check_rtt_series",
    "rtt_lower_bound_ms",
    "set_strict",
    "strict_checks",
    "strict_enabled",
]

#: Relative tolerance between a sub-flow's recorded length and the sum
#: of its edges' distances.
_LENGTH_RTOL = 1e-9

#: Relative slack on the RTT lower bound — covers float accumulation in
#: the haversine/chord conversion, nothing physical.
_RTT_BOUND_RTOL = 1e-6


class InvariantViolation(RuntimeError):
    """A computed result violates a physical or accounting invariant."""


# --- Strict mode -------------------------------------------------------------

_STRICT = False


def strict_enabled() -> bool:
    """Whether strict result guards are currently active."""
    return _STRICT


def set_strict(enabled: bool) -> bool:
    """Set strict mode; returns the previous value."""
    global _STRICT
    previous = _STRICT
    _STRICT = bool(enabled)
    return previous


@contextmanager
def strict_checks(enabled: bool = True) -> Iterator[None]:
    """Context manager: result invariant guards on (or off) inside."""
    previous = set_strict(enabled)
    try:
        yield
    finally:
        set_strict(previous)


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


def check_graph(graph: "SnapshotGraph", source: str = "graph") -> None:
    """Validate a snapshot graph's structural invariants."""
    edges = np.asarray(graph.edges)
    dists = np.asarray(graph.edge_dist_m, dtype=float)
    if len(edges) != len(dists) or len(edges) != len(graph.edge_kind):
        raise InvariantViolation(
            f"{source}: edge arrays disagree: {len(edges)} edges, "
            f"{len(dists)} distances, {len(graph.edge_kind)} kinds"
        )
    if len(edges):
        if edges.min() < 0 or edges.max() >= graph.num_nodes:
            bad = int(np.argmax((edges < 0) | (edges >= graph.num_nodes)) // 2)
            raise InvariantViolation(
                f"{source}: edge {bad} references node outside "
                f"[0, {graph.num_nodes})"
            )
        finite_pos = np.isfinite(dists) & (dists > 0)
        if not finite_pos.all():
            bad = int(np.argmax(~finite_pos))
            raise InvariantViolation(
                f"{source}: edge {bad} has non-finite or non-positive "
                f"length {dists[bad]!r} m"
            )
        # A duplicate would be summed into one CSR entry by matrix(),
        # and routing restores deleted entries assuming unique edges.
        lo = np.minimum(edges[:, 0], edges[:, 1]).astype(np.int64)
        hi = np.maximum(edges[:, 0], edges[:, 1]).astype(np.int64)
        if (lo == hi).any():
            bad = int(np.argmax(lo == hi))
            raise InvariantViolation(
                f"{source}: edge {bad} is a self-loop at node {lo[bad]}"
            )
        keys = lo * graph.num_nodes + hi
        order = np.argsort(keys, kind="stable")
        repeated = np.flatnonzero(keys[order][1:] == keys[order][:-1])
        if repeated.size:
            first, second = order[repeated[0]], order[repeated[0] + 1]
            raise InvariantViolation(
                f"{source}: edges {first} and {second} both join nodes "
                f"{lo[first]} and {hi[first]}"
            )
    for name, ecef, count in (
        ("sat_ecef", graph.sat_ecef, graph.num_sats),
        ("gt_ecef", graph.gt_ecef, graph.num_gts),
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
