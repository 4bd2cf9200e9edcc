"""Span recording around the program's public callables (traced runs only).

:func:`instrumented` replaces each callable below with a wrapper that
records a span — name, start, end, parent span, and a few work counts
read from the arguments or the result — and puts the original back on
exit. Each callable is patched where the program looks it up at call
time: class attributes for methods, the importing module's global for
functions imported by name, and the ``scipy.sparse.csgraph`` module
attribute for ``dijkstra`` (the program calls ``csgraph.dijkstra``).

Nothing here changes what the program computes; untraced runs never
install the wrappers. Spans stay in memory and are written out by the
caller when the run ends. Work counts are read outside the span's timed
interval.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager

import numpy as np


class Recorder:
    """In-memory span store; spans nest by call order (single thread)."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Time a block as a span; yields its attrs dict for late counts."""
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield attrs
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def _argument(args, kwargs, position: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else default


def _dijkstra_work(*args, **kwargs) -> dict:
    matrix = _argument(args, kwargs, 0, "csgraph")
    indices = _argument(args, kwargs, 2, "indices")
    sources = matrix.shape[0] if indices is None else int(np.size(indices))
    min_only = bool(kwargs.get("min_only", False))
    return {
        "sources": 1 if min_only else sources,
        "nnz": int(matrix.nnz),
        "min_only": min_only,
    }


def _graph_size(graph, *args, **kwargs) -> dict:
    return {"mode": graph.mode.value, "nodes": graph.num_nodes, "edges": graph.num_edges}


def _ground_stations(ground, *args, **kwargs) -> dict:
    return {"stations": len(ground.cities) + len(ground.relay_lats)}


def _routing_outcome(routed, graph, pairs, ks, *args, **kwargs) -> dict:
    widest = routed[max(routed)]
    counts = {f"subflows_k{k}": len(r.subflows) for k, r in routed.items()}
    counts["pairs"] = len(pairs)
    counts["unrouted"] = len(widest.unrouted_pairs)
    counts["extra_paths"] = len(widest.subflows) - (len(pairs) - len(widest.unrouted_pairs))
    return counts


def _maxmin_work(flow_edges, *args, **kwargs) -> dict:
    return {"incidences": int(sum(len(edges) for edges in flow_edges))}


def _maxmin_outcome(result, *args, **kwargs) -> dict:
    return {"rounds": int(result.bottleneck_rounds)}


def _shard_bytes(path, *args, **kwargs) -> dict:
    return {"bytes": os.path.getsize(path)}


def _targets():
    """(owner, attribute, span name, work-before, outcome-after) rows."""
    from scipy.sparse import csgraph

    from repro.core import engine, scenario
    from repro.core.checkpoint import RttCheckpoint
    from repro.experiments import fig4_throughput
    from repro.flows import throughput
    from repro.ground.stations import GroundSegment
    from repro.network.graph import SnapshotGraph

    return (
        (GroundSegment, "build", "ground.build", None, _ground_stations),
        (scenario, "sample_city_pairs", "traffic.sample", None, None),
        (engine.StaticContext, "build", "engine.static", None, None),
        (engine.SnapshotEngine, "frame_at", "engine.frame_at", None, None),
        (engine.SnapshotEngine, "graph_at", "engine.graph_at", None, _graph_size),
        (SnapshotGraph, "matrix", "graph.matrix", None, None),
        (csgraph, "dijkstra", "dijkstra", _dijkstra_work, None),
        (fig4_throughput, "route_traffic_multi_k", "routing", None, _routing_outcome),
        (fig4_throughput, "evaluate_throughput", "throughput", None, None),
        (throughput, "max_min_fair_allocation", "maxmin", _maxmin_work, _maxmin_outcome),
        (RttCheckpoint, "store_snapshot", "checkpoint.store", None, _shard_bytes),
    )


def _wrap(recorder: Recorder, name: str, func, work, outcome):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        attrs = work(*args, **kwargs) if work else {}
        with recorder.span(name, **attrs) as span_attrs:
            result = func(*args, **kwargs)
        if outcome:
            span_attrs.update(outcome(result, *args, **kwargs))
        return result

    return wrapper


@contextmanager
def instrumented(recorder: Recorder):
    """Record spans around every target callable inside the block."""
    installed = []
    try:
        for owner, attribute, name, work, outcome in _targets():
            original = vars(owner)[attribute]
            if isinstance(original, classmethod):
                replacement = classmethod(
                    _wrap(recorder, name, original.__func__, work, outcome)
                )
            else:
                replacement = _wrap(recorder, name, original, work, outcome)
            setattr(owner, attribute, replacement)
            installed.append((owner, attribute, original))
        yield recorder
    finally:
        for owner, attribute, original in reversed(installed):
            setattr(owner, attribute, original)
