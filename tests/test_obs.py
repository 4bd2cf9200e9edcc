"""Tests for the observability layer: spans, counters, aggregation.

Covers span nesting and path construction, counter bookkeeping, payload
merging across threads and processes, the disabled fast path (identity
of the shared no-op, near-zero overhead), and the profile report
renderer.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import obs
from repro.context import current, run_context
from repro.network.graph import ConnectivityMode
from repro.obs import (
    METRICS_SCHEMA_VERSION,
    MetricsRegistry,
    SpanStats,
    incr,
    merge_payload,
    observe,
    span,
    traced,
)
from repro.obs.spans import _NOOP


def span_paths(registry: MetricsRegistry) -> set[str]:
    """Every span path the registry has recorded."""
    return set(registry.snapshot()["spans"])


def active_registry():
    """The registry the run context collects into, or ``None``."""
    return current().registry


class TestSpanNesting:
    def test_nested_spans_build_slash_paths(self):
        with observe() as registry:
            with span("outer"):
                with span("inner"):
                    pass
                with span("inner"):
                    pass
        assert span_paths(registry) == {"outer", "outer/inner"}
        snap = registry.snapshot()
        assert snap["spans"]["outer"]["count"] == 1
        assert snap["spans"]["outer/inner"]["count"] == 2

    def test_sibling_spans_do_not_nest(self):
        with observe() as registry:
            with span("a"):
                pass
            with span("b"):
                pass
        assert span_paths(registry) == {"a", "b"}

    def test_exception_pops_the_stack(self):
        with observe() as registry:
            with pytest.raises(ValueError):
                with span("outer"):
                    with span("inner"):
                        raise ValueError("boom")
            with span("after"):
                pass
        # A leaked stack would have recorded "outer/after".
        assert "after" in span_paths(registry)
        assert "outer/after" not in span_paths(registry)
        # The interrupted spans still recorded their elapsed time.
        assert "outer" in span_paths(registry)
        assert "outer/inner" in span_paths(registry)

    def test_span_times_accumulate(self):
        with observe() as registry:
            for _ in range(3):
                with span("work"):
                    time.sleep(0.001)
        stats = registry.snapshot()["spans"]["work"]
        assert stats["count"] == 3
        assert stats["total_s"] >= 0.003
        assert 0 < stats["min_s"] <= stats["max_s"] <= stats["total_s"]


class TestTraced:
    def test_traced_records_under_given_name(self):
        @traced("allocation")
        def work():
            return 42

        with observe() as registry:
            assert work() == 42
        assert span_paths(registry) == {"allocation"}

    def test_traced_defaults_to_qualname(self):
        @traced()
        def some_function():
            pass

        with observe() as registry:
            some_function()
        assert any("some_function" in path for path in span_paths(registry))

    def test_traced_nests_with_spans(self):
        @traced("leaf")
        def leaf():
            pass

        with observe() as registry:
            with span("root"):
                leaf()
        assert span_paths(registry) == {"root", "root/leaf"}

    def test_traced_preserves_metadata_and_works_disabled(self):
        @traced("x")
        def documented():
            """Docstring survives the wrapper."""
            return "ok"

        assert documented.__doc__ == "Docstring survives the wrapper."
        assert documented() == "ok"  # no registry active


class TestCounters:
    def test_incr_accumulates(self):
        with observe() as registry:
            incr("retries")
            incr("retries", 2)
        assert registry.snapshot()["counters"]["retries"] == 3

    def test_incr_disabled_is_noop(self):
        incr("nothing")  # must not raise, must not record anywhere
        assert active_registry() is None

    def test_ensure_counters_fills_zeros_without_clobbering(self):
        registry = MetricsRegistry()
        registry.incr("present", 5)
        registry.ensure_counters(["present", "absent"])
        counters = registry.snapshot()["counters"]
        assert counters == {"present": 5, "absent": 0}


class TestMerge:
    def test_merge_payload_folds_spans_and_counters(self):
        worker = MetricsRegistry()
        with observe(worker):
            with span("snapshot"):
                pass
            incr("hits", 2)
        payload = worker.snapshot()

        with observe() as parent:
            with span("snapshot"):
                pass
            incr("hits")
            merge_payload(payload)
        snap = parent.snapshot()
        assert snap["spans"]["snapshot"]["count"] == 2
        assert snap["counters"]["hits"] == 3

    def test_merge_payload_disabled_is_noop(self):
        merge_payload({"spans": {"x": {"count": 1, "total_s": 1, "min_s": 1, "max_s": 1}}})
        assert active_registry() is None

    def test_span_stats_merge_tracks_extremes(self):
        stats = SpanStats()
        stats.add(0.5)
        stats.merge({"count": 2, "total_s": 0.3, "min_s": 0.1, "max_s": 0.2})
        assert stats.count == 3
        assert stats.total_s == pytest.approx(0.8)
        assert stats.min_s == pytest.approx(0.1)
        assert stats.max_s == pytest.approx(0.5)

    def test_empty_stats_serialize_with_finite_min(self):
        assert SpanStats().to_dict() == {
            "count": 0, "total_s": 0.0, "min_s": 0.0, "max_s": 0.0,
        }


class TestObserveContext:
    def test_observe_restores_previous_registry(self):
        assert active_registry() is None
        outer = MetricsRegistry()
        with observe(outer):
            assert active_registry() is outer
            with observe() as inner:
                assert active_registry() is inner
            assert active_registry() is outer
        assert active_registry() is None

    def test_snapshot_carries_schema_version(self):
        with observe() as registry:
            pass
        assert registry.snapshot()["schema_version"] == METRICS_SCHEMA_VERSION


class TestDisabledFastPath:
    def test_span_returns_shared_noop(self):
        assert span("anything") is _NOOP
        assert span("other") is _NOOP

    def test_disabled_overhead_is_negligible(self):
        """Disabled instrumentation must stay within noise of bare code.

        Times a tight loop of disabled ``span()`` entries and a disabled
        ``traced`` function against their un-instrumented equivalents.
        Bounds are absolute and generous (microseconds per call, vs the
        ~100 ns a no-op costs) so the test is robust on loaded CI boxes.
        """
        n = 50_000

        def plain(x):
            return x + 1

        @traced("t")
        def wrapped(x):
            return x + 1

        def time_loop(func):
            best = float("inf")
            for _ in range(3):
                started = time.perf_counter()
                for i in range(n):
                    func(i)
                best = min(best, time.perf_counter() - started)
            return best

        assert active_registry() is None
        plain_s = time_loop(plain)
        wrapped_s = time_loop(wrapped)
        per_call_overhead = (wrapped_s - plain_s) / n
        assert per_call_overhead < 5e-6, (
            f"disabled traced overhead {per_call_overhead * 1e9:.0f}ns/call"
        )

        def span_loop(i):
            with span("s"):
                pass

        span_s = time_loop(span_loop) / n
        assert span_s < 5e-6, f"disabled span cost {span_s * 1e9:.0f}ns/call"


class TestThreadSafety:
    def test_concurrent_threads_aggregate_without_loss(self):
        threads = 8
        per_thread = 500

        def work():
            for _ in range(per_thread):
                with span("outer"):
                    with span("inner"):
                        pass
                incr("ticks")

        with observe() as registry:
            pool = [threading.Thread(target=work) for _ in range(threads)]
            for t in pool:
                t.start()
            for t in pool:
                t.join()

        snap = registry.snapshot()
        assert snap["spans"]["outer"]["count"] == threads * per_thread
        assert snap["spans"]["outer/inner"]["count"] == threads * per_thread
        assert snap["counters"]["ticks"] == threads * per_thread
        # Per-thread stacks: no cross-thread path pollution.
        assert span_paths(registry) == {"outer", "outer/inner"}


class TestCrossProcessAggregation:
    def test_parallel_sweep_ships_worker_spans_back(self, tiny_scenario):
        from repro.core.pipeline import compute_rtt_series_multi

        with observe() as registry, run_context(jobs=2):
            result = compute_rtt_series_multi(
                tiny_scenario, [ConnectivityMode.BP_ONLY]
            )[ConnectivityMode.BP_ONLY]
        assert result.rtt_ms.shape == (
            len(tiny_scenario.pairs),
            len(tiny_scenario.times_s),
        )
        snap = registry.snapshot()
        # Every snapshot ran in a worker, yet its spans landed here.
        assert snap["spans"]["snapshot"]["count"] == len(tiny_scenario.times_s)
        assert "snapshot/graph_build" in snap["spans"]
        assert "snapshot/dijkstra" in snap["spans"]
        # Each snapshot's graph contracted its transit GTs, or reused a
        # contraction its (shared, possibly warm) frame already held.
        counters = snap["counters"]
        resolved = counters.get("engine.contraction_misses", 0) + counters.get(
            "engine.contraction_hits", 0
        )
        assert resolved == len(tiny_scenario.times_s)

    def test_parallel_sweep_without_observe_collects_nothing(self, tiny_scenario):
        from repro.core.pipeline import compute_rtt_series_multi

        assert active_registry() is None
        with run_context(jobs=2):
            result = compute_rtt_series_multi(
                tiny_scenario, [ConnectivityMode.BP_ONLY]
            )[ConnectivityMode.BP_ONLY]
        assert result.rtt_ms.shape[0] == len(tiny_scenario.pairs)
        assert active_registry() is None


class TestSetupInstrumentation:
    def test_ground_build_and_pair_sampling_report_spans_and_counters(self):
        from repro.flows.traffic import eligible_pairs, sample_city_pairs
        from repro.ground.stations import GroundSegment

        with observe() as registry:
            ground = GroundSegment.build(
                num_cities=30, relay_spacing_deg=5.0, use_aircraft=False
            )
            sample_city_pairs(ground.cities, num_pairs=10)
        assert {"ground_build", "ground_build/relay_grid", "pair_sampling"} <= (
            span_paths(registry)
        )
        counters = registry.snapshot()["counters"]
        assert counters["ground.relays"] == ground.relay_count > 0
        assert counters["traffic.eligible_pairs"] == len(
            eligible_pairs(ground.cities)
        )


class TestProfileReport:
    def test_report_renders_spans_and_counters(self):
        with observe() as registry:
            with span("graph_build"):
                pass
            incr("checkpoint.hits", 3)
        payload = registry.snapshot()
        payload.update({"ok": True, "wall_s": 1.0, "cpu_s": 0.5})
        text = obs.format_profile_report({"fig2": payload})
        assert "fig2" in text
        assert "graph_build" in text
        assert "checkpoint.hits" in text

    def test_report_handles_empty_batch(self):
        assert obs.format_profile_report({}) != ""
