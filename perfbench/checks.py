"""Output checks, run after the timed sweep.

An *evaluation* is one snapshot time with both modes. An evaluation
fails when its sweep raised, or when its output fails any of:

* **reference** (reference seed only): RTT matrices and Fig. 4
  aggregates match the values stored under ``reference/`` within
  :data:`RTOL`, with the same ``inf`` pattern. Not a byte comparison: a
  correct change of algorithm may reorder floating-point sums.
* **recomputation** (RTT, any seed): a seeded sample of cells is
  recomputed with a plain single-source Dijkstra over the edge list of
  ``Scenario.graph_at`` output, built on a fresh copy of the scenario.
* **invariants** (RTT, any seed): hybrid RTT <= BP RTT per cell (and
  finite wherever BP is), and no RTT below the speed-of-light chord
  between the two cities. Fig. 4 aggregates are finite and positive.
* **repeatability**: every pass over the snapshot grid reproduces the
  first pass exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

#: Relative tolerance of every numeric comparison.
RTOL = 1e-6
#: Slack of the invariant comparisons (rounding only).
INVARIANT_RTOL = 1e-9
#: The seed whose outputs are stored under ``reference/``.
REFERENCE_SEED = 42
SPEED_OF_LIGHT_M_S = 299_792_458.0
#: The program's spherical Earth radius.
EARTH_RADIUS_M = 6_371_000.0
SAMPLE_SNAPSHOTS = 2
SAMPLE_PAIRS = 8

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(workload) -> Path:
    return REFERENCE_DIR / f"{workload.name}.json"


def _to_json(values: np.ndarray) -> list:
    return [[None if np.isinf(v) else float(v) for v in row] for row in values]


def _from_json(rows: list) -> np.ndarray:
    return np.array([[np.inf if v is None else v for v in row] for row in rows], dtype=float)


def reference_record(workload, seed: int, outputs) -> dict:
    """The JSON form of one pass's outputs, stored as a reference."""
    if workload.kind == "rtt":
        stored = {mode: _to_json(values) for mode, values in outputs.items()}
    else:
        stored = outputs
    return {
        "workload": workload.name,
        "seed": seed,
        "rtol": RTOL,
        "times_s": workload.times_s(),
        "outputs": stored,
    }


def load_reference(workload, seed: int):
    """Stored outputs for ``seed``, or ``None`` when it is not the reference seed."""
    if seed != REFERENCE_SEED:
        return None
    record = json.loads(reference_path(workload).read_text())
    if workload.kind == "rtt":
        return {mode: _from_json(rows) for mode, rows in record["outputs"].items()}
    return record["outputs"]


def _close(actual: np.ndarray, expected: np.ndarray, rtol: float = RTOL) -> np.ndarray:
    """Per-column agreement: same ``inf`` pattern and finite values within rtol."""
    same_pattern = np.isinf(actual) == np.isinf(expected)
    finite = np.isfinite(actual) & np.isfinite(expected)
    near = np.ones(actual.shape, dtype=bool)
    near[finite] = np.isclose(actual[finite], expected[finite], rtol=rtol, atol=0.0)
    return np.all(same_pattern & near, axis=0)


def _chord_floor_ms(scenario) -> np.ndarray:
    """Speed-of-light RTT along the straight chord between each pair's cities."""
    cities = scenario.ground.cities
    lat = np.radians([c.lat_deg for c in cities])
    lon = np.radians([c.lon_deg for c in cities])
    unit = np.stack([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)], axis=1)
    a = np.array([p.a for p in scenario.pairs])
    b = np.array([p.b for p in scenario.pairs])
    chord_m = EARTH_RADIUS_M * np.linalg.norm(unit[a] - unit[b], axis=1)
    return 2e3 * chord_m / SPEED_OF_LIGHT_M_S


def _recomputed_rtt_ms(graph, pairs, pair_ids) -> np.ndarray:
    """RTTs of the sampled pairs by single-source Dijkstra on the edge list.

    Parallel edges keep their shortest length (a sparse constructor
    would add them up).
    """
    n = graph.num_nodes
    u = np.minimum(graph.edges[:, 0], graph.edges[:, 1]).astype(np.int64)
    v = np.maximum(graph.edges[:, 0], graph.edges[:, 1]).astype(np.int64)
    keys, inverse = np.unique(u * n + v, return_inverse=True)
    length = np.full(len(keys), np.inf)
    np.minimum.at(length, inverse, graph.edge_dist_m)
    matrix = sparse.csr_matrix((length, (keys // n, keys % n)), shape=(n, n))
    out = np.empty(len(pair_ids))
    for slot, pid in enumerate(pair_ids):
        pair = pairs[pid]
        dist = csgraph.dijkstra(matrix, directed=False, indices=graph.num_sats + pair.a)
        out[slot] = 2e3 * dist[graph.num_sats + pair.b] / SPEED_OF_LIGHT_M_S
    return out


def check_rtt(program, workload, scenario, outputs, seed, reference):
    """Failed ``(pass, snapshot)`` evaluations and a line per problem."""
    n = workload.num_snapshots
    problems: list[str] = []
    first = next((out for out in outputs if out is not None), None)
    if first is None:
        return {(p, j) for p in range(len(outputs)) for j in range(n)}, ["no pass completed"]

    ok = np.ones(n, dtype=bool)
    bp, hybrid = first["bp"], first["hybrid"]
    floor = _chord_floor_ms(scenario)[:, None] * (1.0 - INVARIANT_RTOL)
    both = np.isfinite(bp) & np.isfinite(hybrid)
    checks = {
        "hybrid above BP": np.any(both & (hybrid > bp * (1.0 + INVARIANT_RTOL)), axis=0),
        "hybrid unreachable where BP is reachable": np.any(
            np.isfinite(bp) & ~np.isfinite(hybrid), axis=0
        ),
        "RTT below the speed-of-light chord": np.any(
            (bp < floor) | (hybrid < floor), axis=0
        ),
    }
    if reference is not None:
        for mode in program.MODE_NAMES:
            checks[f"{mode} differs from the reference"] = ~_close(first[mode], reference[mode])

    rng = np.random.default_rng(seed)
    sample_j = rng.choice(n, size=min(SAMPLE_SNAPSHOTS, n), replace=False)
    sample_p = rng.choice(len(scenario.pairs), size=min(SAMPLE_PAIRS, len(scenario.pairs)), replace=False)
    copy = program.fresh_copy(scenario)
    recompute_bad = np.zeros(n, dtype=bool)
    for j in sample_j:
        for mode in program.MODE_NAMES:
            graph = program.snapshot_graph(copy, workload.times_s()[j], mode)
            expected = _recomputed_rtt_ms(graph, copy.pairs, sample_p)
            if not _close(first[mode][sample_p, j][:, None], expected[:, None])[0]:
                recompute_bad[j] = True
    checks["sampled cells differ from a plain Dijkstra"] = recompute_bad

    for name, bad in checks.items():
        if bad.any():
            problems.append(f"{name} at snapshots {np.flatnonzero(bad).tolist()}")
        ok &= ~bad

    failed = set()
    for p, out in enumerate(outputs):
        if out is None:
            failed.update((p, j) for j in range(n))
            continue
        same = np.ones(n, dtype=bool)
        for mode in program.MODE_NAMES:
            same &= np.all(
                (out[mode] == first[mode]) | (np.isinf(out[mode]) & np.isinf(first[mode])),
                axis=0,
            )
        if not same.all():
            problems.append(f"pass {p} differs from pass 0 at {np.flatnonzero(~same).tolist()}")
        failed.update((p, int(j)) for j in np.flatnonzero(~(ok & same)))
    return failed, problems


def check_tput(outputs, reference):
    """Failed ``(pass, instant)`` evaluations and a line per problem."""
    problems: list[str] = []
    first: dict[int, dict] = {}
    failed = set()
    for p, outs in enumerate(outputs):
        for j, out in enumerate(outs):
            if out is None:
                failed.add((p, j))
                continue
            values = np.array(list(out.values()))
            reasons = []
            if not np.all(np.isfinite(values) & (values > 0)):
                reasons.append("aggregate not finite and positive")
            if first.setdefault(j, out) != out:
                reasons.append("differs from its first evaluation")
            if reference is not None:
                expected = reference[j]
                if set(expected) != set(out) or not all(
                    np.isclose(out[key], expected[key], rtol=RTOL, atol=0.0) for key in out
                ):
                    reasons.append("differs from the reference")
            if reasons:
                failed.add((p, j))
                problems.append(f"pass {p} instant {j}: {', '.join(reasons)}")
    return failed, problems
