"""Exact transit-GT contraction: relays and aircraft become bounce edges.

Ground relays and aircraft are pure transit nodes: their only
neighbours are satellites, so a shortest path can enter one only from
a satellite ``a`` and must leave it to a satellite ``b``. Replacing
every such node ``R`` with satellite-satellite "bounce" edges of weight
``min_R d(a, R) + d(R, b)`` therefore preserves every shortest distance
between the nodes that remain — satellites and cities. What is left is
the satellite + city "ground-hub" graph: at a 1 degree relay grid about
7x fewer CSR entries (285k -> 40k), which is what makes batched RTT
Dijkstra cheap.

Cities are *not* contracted: they are sources and targets, and with
fiber they have ground neighbours. Paths and routing also stay on the
physical graph; only distances are computed on the contracted one.

The contraction reads the GT-satellite rows as a *by-GT CSR*: GT ``g``
(a station index) owns rows ``indptr[g]:indptr[g + 1]``, whose
satellites ascend (``SnapshotGraph._contract_radio`` builds it with one
transpose of the graph's CSR by satellite).
"""

from __future__ import annotations

import numpy as np
from repro.obs import incr

__all__ = ["PAIR_CHUNK", "bounce_edges", "min_per_pair"]

#: Most satellite pairs materialized at once while enumerating bounce
#: candidates, so transient memory does not grow with the number of
#: relays and aircraft.
PAIR_CHUNK = 1 << 18

_EMPTY = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0))

#: Idle pair-minimum tables, all ``inf``, keyed by satellite count. A
#: call takes its table out of the pool while it works (``dict.pop`` is
#: atomic), so no two threads ever share one, and an exception leaves
#: no dirty table behind.
_idle_tables: dict[int, np.ndarray] = {}


def min_per_pair(u: np.ndarray, v: np.ndarray, w: np.ndarray):
    """Unique undirected ``(lo, hi)`` node pairs with their minimum weight.

    Returns ``(lo, hi, w)`` with ``lo <= hi``, sorted by ``(lo, hi)``.
    """
    if not len(w):
        return _EMPTY
    lo = np.minimum(u, v).astype(np.int64)
    hi = np.maximum(u, v).astype(np.int64)
    key = lo * (int(hi.max()) + 1) + hi
    order = np.argsort(key)
    key = key[order]
    starts = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
    keep = order[starts]
    return lo[keep], hi[keep], np.minimum.reduceat(w[order], starts)


def bounce_edges(indptr, sats, dist_m, num_sats: int):
    """Satellite-satellite bounce edges replacing the transit GTs.

    The transit GTs are a by-GT CSR: transit GT ``g`` sees satellites
    ``sats[indptr[g]:indptr[g + 1]]``, ascending, at slant lengths
    ``dist_m[...]`` (``indptr`` need not start at 0, so a slice of a
    whole ground segment's offsets serves as is). Returns ``(a, b, w)``:
    every satellite pair ``a < b`` sharing a transit GT, with ``w =
    min_R d(a, R) + d(R, b)``, sorted by ``(a, b)``.

    GTs of equal degree ``d`` are expanded together through
    ``triu_indices(d, 1)``, at most :data:`PAIR_CHUNK` pairs at a time,
    gathered as ``(d, GTs)`` blocks so every pair's gather copies whole
    rows. ``np.minimum.at`` folds each chunk into a table with one slot
    per satellite pair ``a < b``, packed row by row: slot ``a * n - a (a
    + 1) / 2 + (b - a - 1)`` for ``n`` satellites (8 bytes per pair:
    10 MB for 1,584 satellites, whatever the size of the ground
    segment). The table is reused across calls, one per satellite count
    and concurrent call; after decoding, only its touched slots are
    reset to ``inf``. The expanded (GT, a, b) triples are counted in
    ``engine.bounce_candidates``.
    """
    degree = np.diff(indptr)
    if not degree.any():
        return _EMPTY
    sat_ids = np.arange(num_sats, dtype=np.int64)
    # Pair (a, b) lives at slot row_base[a] + b; row a starts at row_start[a].
    row_start = sat_ids * num_sats - sat_ids * (sat_ids + 1) // 2
    row_base = row_start - sat_ids - 1
    best = _idle_tables.pop(num_sats, None)
    if best is None:
        best = np.full(num_sats * (num_sats - 1) // 2, np.inf)
    expanded = 0
    for d in np.unique(degree[degree >= 2]):
        rows = np.flatnonzero(degree == d)
        first, second = np.triu_indices(d, 1)
        step = max(1, PAIR_CHUNK // len(first))
        for start in range(0, len(rows), step):
            slots = indptr[rows[start : start + step]] + np.arange(d)[:, None]
            sat, dist = sats[slots], dist_m[slots]
            base = row_base[sat]
            np.minimum.at(
                best,
                (base[first] + sat[second]).ravel(),
                (dist[first] + dist[second]).ravel(),
            )
        expanded += len(rows) * len(first)
    incr("engine.bounce_candidates", expanded)
    slot = np.flatnonzero(best < np.inf)
    weights = best[slot]
    best[slot] = np.inf
    _idle_tables[num_sats] = best
    a = np.searchsorted(row_start, slot, side="right") - 1
    return a, slot - row_base[a], weights
