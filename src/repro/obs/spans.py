"""Lightweight nested spans and counters for the snapshot pipeline.

The simulator's hot layers (graph build, batched Dijkstra, max-min
allocation, checkpoint I/O) are instrumented with *spans* — named timed
sections that nest — and *counters*. Both aggregate into a
:class:`MetricsRegistry`:

* ``with span("dijkstra"): ...`` times a section; nested spans build a
  slash-joined path (``snapshot/dijkstra``) so the aggregate is a tree;
* ``@traced("allocation")`` does the same for a whole function;
* ``incr("parallel.worker_retries")`` bumps a named counter.

Collection is **off by default** and the disabled paths are near-free:
``span()`` returns a shared no-op object after a single run-context
check, ``traced`` adds one ``is None`` test per call, and ``incr``
returns immediately. Pipelines therefore stay un-instrumented in effect
unless an :func:`observe` context is active (``repro run --profile``
turns one on per experiment). The collecting registry is the ``registry``
field of the run context (:mod:`repro.context`).

Aggregation is thread-safe (one lock per registry, per-thread span
stacks) and process-friendly: a worker process opens its own
:func:`observe` context, snapshots it with
:meth:`MetricsRegistry.snapshot`, ships the plain-dict payload back with
its result, and the parent folds it in with :func:`merge_payload` — the
route :func:`repro.core.parallel.map_snapshot_rows` uses for its pool.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from contextlib import contextmanager

from repro.context import current, run_context

__all__ = [
    "METRICS_SCHEMA_VERSION",
    "MetricsRegistry",
    "SpanStats",
    "incr",
    "merge_payload",
    "observe",
    "span",
    "traced",
]

#: Version stamp written into every metrics payload.
METRICS_SCHEMA_VERSION = 1


class SpanStats:
    """Aggregate timing of every execution of one span path."""

    __slots__ = ("count", "total_s", "min_s", "max_s")

    def __init__(self):
        self.count = 0
        self.total_s = 0.0
        self.min_s = math.inf
        self.max_s = 0.0

    def add(self, elapsed_s: float) -> None:
        """Fold one execution's elapsed time into the aggregate."""
        self.count += 1
        self.total_s += elapsed_s
        if elapsed_s < self.min_s:
            self.min_s = elapsed_s
        if elapsed_s > self.max_s:
            self.max_s = elapsed_s

    def merge(self, other: dict) -> None:
        """Fold a serialized :meth:`to_dict` aggregate into this one."""
        self.count += int(other["count"])
        self.total_s += float(other["total_s"])
        self.min_s = min(self.min_s, float(other["min_s"]))
        self.max_s = max(self.max_s, float(other["max_s"]))

    def to_dict(self) -> dict:
        """JSON-friendly form (used in ``metrics.json`` payloads)."""
        return {
            "count": self.count,
            "total_s": self.total_s,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s,
        }


class MetricsRegistry:
    """Thread-safe sink for span timings and counters.

    One registry is active at a time (per process); see :func:`observe`.
    Span nesting state lives in per-thread stacks, so concurrent threads
    each build their own paths while sharing the aggregate tables.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._spans: dict[str, SpanStats] = {}
        self._counters: dict[str, float] = {}
        self._local = threading.local()

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def record_span(self, path: str, elapsed_s: float) -> None:
        """Fold one timed execution of ``path`` into the aggregate."""
        with self._lock:
            stats = self._spans.get(path)
            if stats is None:
                stats = self._spans[path] = SpanStats()
            stats.add(elapsed_s)

    def incr(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (creating it at zero)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def ensure_counters(self, names) -> None:
        """Create zero-valued counters for ``names`` not yet recorded.

        Consumers of ``metrics.json`` want a stable key set — a sweep
        with zero retries should say ``0``, not omit the key.
        """
        with self._lock:
            for name in names:
                self._counters.setdefault(name, 0)

    def merge(self, payload: dict) -> None:
        """Fold a :meth:`snapshot` payload (e.g. from a worker process)."""
        with self._lock:
            for path, entry in payload.get("spans", {}).items():
                stats = self._spans.get(path)
                if stats is None:
                    stats = self._spans[path] = SpanStats()
                stats.merge(entry)
            for name, value in payload.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + value

    def snapshot(self) -> dict:
        """Plain-dict copy of the aggregate: picklable, JSON-ready."""
        with self._lock:
            return {
                "schema_version": METRICS_SCHEMA_VERSION,
                "spans": {
                    path: stats.to_dict() for path, stats in self._spans.items()
                },
                "counters": dict(self._counters),
            }


@contextmanager
def observe(registry: MetricsRegistry | None = None):
    """Enable collection inside the block; yields the registry.

    Nestable: the previous registry (usually ``None``) is restored on
    exit, so a profiled batch can contain independently profiled
    sub-sections.
    """
    target = registry if registry is not None else MetricsRegistry()
    with run_context(registry=target):
        yield target


class _NoopSpan:
    """Shared do-nothing span returned while collection is disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NOOP = _NoopSpan()


class _Span:
    """A live timed section; records itself on exit under its full path."""

    __slots__ = ("_registry", "_name", "_path", "_started")

    def __init__(self, registry: MetricsRegistry, name: str):
        self._registry = registry
        self._name = name

    def __enter__(self):
        stack = self._registry._stack()
        stack.append(self._name)
        self._path = "/".join(stack)
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self._started
        self._registry._stack().pop()
        self._registry.record_span(self._path, elapsed)
        return False


def span(name: str):
    """A context manager timing one named section.

    When no registry is active this returns a shared no-op object — the
    disabled cost is one run-context field read and one allocation
    avoided, well under a microsecond per call.
    """
    registry = current().registry
    if registry is None:
        return _NOOP
    return _Span(registry, name)


def traced(name: str | None = None):
    """Decorator form of :func:`span` for whole functions.

    ``@traced()`` uses the function's qualified name; ``@traced("x")``
    overrides it. Adds a single ``is None`` check per call when
    collection is disabled.
    """

    def decorate(func):
        label = name or func.__qualname__

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            registry = current().registry
            if registry is None:
                return func(*args, **kwargs)
            with _Span(registry, label):
                return func(*args, **kwargs)

        return wrapper

    return decorate


def incr(name: str, value: float = 1) -> None:
    """Bump a named counter on the active registry (no-op when disabled)."""
    registry = current().registry
    if registry is not None:
        registry.incr(name, value)


def merge_payload(payload: dict) -> None:
    """Fold a worker's snapshot payload into the active registry.

    No-op when collection is disabled — callers can always forward
    whatever payload a worker returned without checking first.
    """
    registry = current().registry
    if registry is not None and payload:
        registry.merge(payload)
