"""Tests for the snapshot map.

:func:`repro.core.parallel.map_snapshot_rows` is the single sweep
engine behind the RTT series and the fig4/fig5/disconnected
experiments. This module locks the engine's own contract — every
``jobs`` value produces bit-identical rows, the same checkpoint
counters and ``snapshot`` spans, and progress by one rule; resume
verifies each shard once; labelled checkpoints isolate and resume
sweeps; faults are survived — plus the straggler property the
``concurrent.futures.wait`` rewrite bought: one timeout window covers
*all* in-flight hung workers instead of stacking a window per future.

The experiment-facing evaluators (throughput, component stats, the
fig4/fig5 rows) are exercised through the same engine here, so a change
to the engine that skews any experiment's numbers fails in this file
before it reaches the golden tests.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.context import run_context
from repro.core import parallel
from repro.core.checkpoint import checkpoint_for, checkpoint_root
from repro.core.parallel import map_snapshot_rows
from repro.experiments.disconnected import _component_row
from repro.experiments.fig4_throughput import _matrix_snapshot_row
from repro.experiments.fig5_isl_capacity import RATIOS, _capacity_sweep_row
from repro.network.graph import ConnectivityMode
from repro.obs import observe

BP = ConnectivityMode.BP_ONLY
HYBRID = ConnectivityMode.HYBRID
MODES = (BP, HYBRID)

TIMES = np.asarray([0.0, 60.0, 120.0, 180.0, 240.0])

# Evaluators and their failing wrappers live at module level so
# spawn-started workers can unpickle them.


def _poly_row(scenario, time_s, mode) -> np.ndarray:
    """Cheap deterministic evaluator: a polynomial in (time, mode)."""
    base = 1.0 if mode is BP else 2.0
    return np.asarray([base * time_s, base + time_s, base])


def _other_row(scenario, time_s, mode) -> np.ndarray:
    return -_poly_row(scenario, time_s, mode)


def _ragged_row(scenario, time_s, mode) -> np.ndarray:
    """Different row widths per mode (the fig5 shape)."""
    if mode is BP:
        return np.asarray([time_s])
    return np.asarray([time_s, 2.0 * time_s])


def _wrong_width_row(scenario, time_s, mode) -> np.ndarray:
    return np.asarray([1.0, 2.0])


def _explode(scenario, time_s, mode) -> np.ndarray:
    raise AssertionError("evaluator must not run on a fully resumed sweep")


_FLAG_DIR_ENV = "REPRO_TEST_SNAPMAP_FLAG_DIR"


def _first_time_in_a_worker(time_s: float) -> bool:
    """True on a pool worker's first call for ``time_s`` across all processes."""
    if multiprocessing.parent_process() is None:
        return False
    flag = Path(os.environ[_FLAG_DIR_ENV]) / f"snapshot_{time_s:g}"
    if flag.exists():
        return False
    flag.touch()
    return True


def _crash_once_per_snapshot(evaluator, scenario, time_s, mode) -> np.ndarray:
    """``evaluator``, but a worker's first attempt at each snapshot raises."""
    if _first_time_in_a_worker(time_s):
        raise RuntimeError("transient worker crash")
    return evaluator(scenario, time_s, mode)


def _hang_first_snapshot_once(evaluator, scenario, time_s, mode) -> np.ndarray:
    """``evaluator``, but a worker's first attempt at t = 0 hangs for 4 s."""
    if time_s == 0.0 and _first_time_in_a_worker(time_s):
        time.sleep(4.0)
    return evaluator(scenario, time_s, mode)


@pytest.fixture()
def flag_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(_FLAG_DIR_ENV, str(tmp_path))
    return tmp_path


@pytest.fixture()
def fast_retries(monkeypatch):
    monkeypatch.setattr(parallel, "BACKOFF_BASE_S", 0.01)


def _pooled(*args, **kwargs):
    """:func:`map_snapshot_rows` on two workers."""
    with run_context(jobs=2):
        return map_snapshot_rows(*args, **kwargs)


def _expected_poly(times):
    return {
        mode: np.stack(
            [_poly_row(None, float(t), mode) for t in times], axis=1
        )
        for mode in MODES
    }


class TestSerialMap:
    def test_rows_are_columns_per_mode(self, tiny_scenario):
        rows = map_snapshot_rows(
            tiny_scenario, MODES, _poly_row, row_len=3, times_s=TIMES
        )
        expected = _expected_poly(TIMES)
        for mode in MODES:
            assert rows[mode].shape == (3, len(TIMES))
            np.testing.assert_array_equal(rows[mode], expected[mode])

    def test_per_mode_row_widths(self, tiny_scenario):
        rows = map_snapshot_rows(
            tiny_scenario,
            MODES,
            _ragged_row,
            row_len={BP: 1, HYBRID: 2},
            times_s=TIMES,
        )
        assert rows[BP].shape == (1, len(TIMES))
        assert rows[HYBRID].shape == (2, len(TIMES))
        np.testing.assert_array_equal(rows[BP][0], TIMES)
        np.testing.assert_array_equal(rows[HYBRID][1], 2.0 * TIMES)

    def test_wrong_row_shape_rejected(self, tiny_scenario):
        with pytest.raises(ValueError, match="expected"):
            map_snapshot_rows(
                tiny_scenario, [BP], _wrong_width_row, row_len=3, times_s=TIMES
            )

    def test_progress_reports_each_snapshot(self, tiny_scenario):
        calls = []
        map_snapshot_rows(
            tiny_scenario,
            [BP],
            _poly_row,
            row_len=3,
            times_s=TIMES,
            progress=lambda done, total: calls.append((done, total)),
        )
        assert calls == [(i + 1, len(TIMES)) for i in range(len(TIMES))]


class TestParallelMatchesSerial:
    def test_bit_identical_rows(self, tiny_scenario):
        serial = map_snapshot_rows(
            tiny_scenario, MODES, _poly_row, row_len=3, times_s=TIMES
        )
        parallel = _pooled(tiny_scenario, MODES, _poly_row, row_len=3, times_s=TIMES)
        for mode in MODES:
            np.testing.assert_array_equal(parallel[mode], serial[mode])

    def test_worker_crashes_recovered(self, tiny_scenario, flag_dir, fast_retries):
        with observe() as registry:
            rows = _pooled(
                tiny_scenario,
                MODES,
                functools.partial(_crash_once_per_snapshot, _poly_row),
                row_len=3,
                times_s=TIMES,
            )
        expected = _expected_poly(TIMES)
        for mode in MODES:
            np.testing.assert_array_equal(rows[mode], expected[mode])
        # Every snapshot crashed exactly once before its pool retry.
        assert len(list(flag_dir.iterdir())) == len(TIMES)
        assert "parallel.serial_fallbacks" not in registry.snapshot()["counters"]

    def test_straggler_costs_one_window_not_one_per_future(
        self, tiny_scenario, flag_dir, fast_retries, monkeypatch
    ):
        """The stall-based timeout: hung workers share a single window.

        One snapshot hangs for 4 s on its first attempt while the other
        five finish in milliseconds. With the single ``wait`` window the
        sweep notices the stall after ~1 s, fails the straggler, and the
        retry (flag set, no hang) completes immediately — well under the
        4 s the evaluator sleeps. An implementation that waited on the
        hung future directly (or stacked one window per outstanding
        future) cannot finish before the sleep does.
        """
        monkeypatch.setattr(parallel, "MAX_ATTEMPTS", 2)
        monkeypatch.setattr(parallel, "SNAPSHOT_TIMEOUT_S", 1.0)
        start = time.monotonic()
        with observe() as registry:
            rows = _pooled(
                tiny_scenario,
                MODES,
                functools.partial(_hang_first_snapshot_once, _poly_row),
                row_len=3,
                times_s=np.asarray([0.0, 1.0, 2.0, 3.0, 4.0, 5.0]),
            )
        elapsed = time.monotonic() - start
        counters = registry.snapshot()["counters"]
        assert counters["parallel.timeouts"] >= 1
        assert elapsed < 3.5, f"straggler stalled the sweep for {elapsed:.1f}s"
        expected = _expected_poly(np.asarray([0.0, 1.0, 2.0, 3.0, 4.0, 5.0]))
        for mode in MODES:
            np.testing.assert_array_equal(rows[mode], expected[mode])


#: Shards on disk before a contract run, per mode. "partial" resumes
#: snapshot 1 in both modes and snapshot 3 in BP only, so one pending
#: snapshot evaluates only its hybrid cell.
RESUMED = {
    "fresh": {BP: (), HYBRID: ()},
    "partial": {BP: (1, 3), HYBRID: (1,)},
    "full": {BP: range(len(TIMES)), HYBRID: range(len(TIMES))},
}


def _contract_run(scenario, root, jobs, resumed):
    """One sweep over seeded shards: rows, counters, spans, progress."""
    with checkpoint_root(root):
        for mode in MODES:
            checkpoint = checkpoint_for(
                root, scenario, mode, label="contract", times_s=TIMES, row_len=3
            )
            for i in resumed[mode]:
                checkpoint.store_snapshot(i, _poly_row(None, float(TIMES[i]), mode))
        calls = []
        with observe() as registry, run_context(jobs=jobs):
            rows = map_snapshot_rows(
                scenario,
                MODES,
                _poly_row,
                row_len=3,
                times_s=TIMES,
                label="contract",
                progress=lambda done, total: calls.append((done, total)),
            )
    payload = registry.snapshot()
    spans = payload["spans"].get("snapshot", {}).get("count", 0)
    return rows, payload["counters"], spans, calls


class TestOneMapContract:
    """``jobs`` in {1, 2} x {fresh, partial, full resume}: one behaviour.

    Progress rule: one call for the resumed snapshots (if any), then one
    call per completed snapshot, ending at ``(total, total)``.
    """

    @pytest.mark.parametrize("state", sorted(RESUMED))
    def test_processes_agree(self, tiny_scenario, tmp_path, state):
        resumed = RESUMED[state]
        total = len(TIMES)
        cells = total * len(MODES)
        hits = sum(len(resumed[mode]) for mode in MODES)
        done = len(set(resumed[BP]) & set(resumed[HYBRID]))
        progress = [(done, total)] if done else []
        progress += [(n, total) for n in range(done + 1, total + 1)]
        expected = _expected_poly(TIMES)
        for jobs in (1, 2):
            rows, counters, spans, calls = _contract_run(
                tiny_scenario, tmp_path / f"p{jobs}", jobs, resumed
            )
            for mode in MODES:
                np.testing.assert_array_equal(rows[mode], expected[mode])
            assert counters.get("checkpoint.hits", 0) == hits
            assert counters.get("checkpoint.misses", 0) == cells - hits
            assert spans == cells - hits
            assert calls == progress


class TestCheckpointResume:
    def test_partial_resume_verifies_each_shard_once(self, tiny_scenario, tmp_path):
        times = TIMES[:4]
        with checkpoint_root(tmp_path):
            checkpoint = checkpoint_for(
                tmp_path, tiny_scenario, BP, label="", times_s=times, row_len=3
            )
            for i in (0, 2):
                checkpoint.store_snapshot(i, _poly_row(None, float(times[i]), BP))
            calls = []
            with observe() as registry:
                rows = map_snapshot_rows(
                    tiny_scenario,
                    [BP],
                    _poly_row,
                    row_len=3,
                    times_s=times,
                    progress=lambda done, total: calls.append((done, total)),
                )
        counters = registry.snapshot()["counters"]
        assert counters["integrity.shards_verified"] == 2
        assert counters["checkpoint.hits"] + counters["checkpoint.misses"] == len(times)
        done = [d for d, _ in calls]
        assert done == sorted(done)
        assert calls[-1] == (len(times), len(times))
        np.testing.assert_array_equal(rows[BP], _expected_poly(times)[BP])

    def test_resume_serves_rows_without_reevaluating(
        self, tiny_scenario, tmp_path
    ):
        with checkpoint_root(tmp_path):
            first = map_snapshot_rows(
                tiny_scenario, MODES, _poly_row, row_len=3, times_s=TIMES
            )
            # Resume with an evaluator that *cannot* run: every row must
            # come back verified from disk.
            with observe() as registry:
                resumed = map_snapshot_rows(
                    tiny_scenario, MODES, _explode, row_len=3, times_s=TIMES
                )
        counters = registry.snapshot()["counters"]
        assert counters["checkpoint.hits"] == len(TIMES) * len(MODES)
        assert "checkpoint.misses" not in counters
        for mode in MODES:
            np.testing.assert_array_equal(resumed[mode], first[mode])

    def test_parallel_resume_from_serial_shards(self, tiny_scenario, tmp_path):
        with checkpoint_root(tmp_path):
            first = map_snapshot_rows(
                tiny_scenario, MODES, _poly_row, row_len=3, times_s=TIMES
            )
            resumed = _pooled(
                tiny_scenario, MODES, _explode, row_len=3, times_s=TIMES
            )
        for mode in MODES:
            np.testing.assert_array_equal(resumed[mode], first[mode])

    def test_labels_isolate_sweeps(self, tiny_scenario, tmp_path):
        with checkpoint_root(tmp_path):
            rows_a = map_snapshot_rows(
                tiny_scenario,
                [BP],
                _poly_row,
                row_len=3,
                times_s=TIMES,
                label="sweep a!",
            )
            rows_b = map_snapshot_rows(
                tiny_scenario,
                [BP],
                _other_row,
                row_len=3,
                times_s=TIMES,
                label="sweep-b",
            )
            # Each label resumes its own shards — never the other's.
            resumed_a = map_snapshot_rows(
                tiny_scenario,
                [BP],
                _explode,
                row_len=3,
                times_s=TIMES,
                label="sweep a!",
            )
            resumed_b = map_snapshot_rows(
                tiny_scenario,
                [BP],
                _explode,
                row_len=3,
                times_s=TIMES,
                label="sweep-b",
            )
        np.testing.assert_array_equal(resumed_a[BP], rows_a[BP])
        np.testing.assert_array_equal(resumed_b[BP], rows_b[BP])
        assert not np.array_equal(rows_a[BP], rows_b[BP])
        names = sorted(p.name for p in tmp_path.iterdir())
        # Labels land in the directory names, sanitized for the fs.
        assert any(name.startswith("sweep_a_-") for name in names)
        assert any(name.startswith("sweep-b-") for name in names)


class TestExperimentEvaluators:
    """The experiment rows, serial vs parallel through the same engine."""

    def test_disconnected_rows_identical(self, tiny_scenario):
        serial = map_snapshot_rows(
            tiny_scenario, MODES, _component_row, row_len=2
        )
        parallel = _pooled(tiny_scenario, MODES, _component_row, row_len=2)
        for mode in MODES:
            np.testing.assert_array_equal(parallel[mode], serial[mode])
        # BP strands satellites; hybrid (with ISLs) essentially none.
        assert serial[BP][0].max() >= serial[HYBRID][0].max()

    def test_fig4_matrix_rows_identical(self, tiny_scenario):
        evaluator = functools.partial(_matrix_snapshot_row, ks=(1, 4))
        serial = map_snapshot_rows(
            tiny_scenario, MODES, evaluator, row_len=2
        )
        parallel = _pooled(tiny_scenario, MODES, evaluator, row_len=2)
        for mode in MODES:
            np.testing.assert_array_equal(parallel[mode], serial[mode])

    def test_fig5_ragged_rows_identical(self, tiny_scenario):
        evaluator = functools.partial(_capacity_sweep_row, k=2, ratios=RATIOS)
        widths = {BP: 1, HYBRID: len(RATIOS)}
        times = tiny_scenario.times_s[:2]
        serial = map_snapshot_rows(
            tiny_scenario, MODES, evaluator, row_len=widths, times_s=times
        )
        parallel = _pooled(
            tiny_scenario, MODES, evaluator, row_len=widths, times_s=times
        )
        for mode in MODES:
            np.testing.assert_array_equal(parallel[mode], serial[mode])


#: fig4's evaluator at k = 1: one aggregate throughput number per snapshot.
_TPUT_K1 = functools.partial(_matrix_snapshot_row, ks=(1,))


def _throughput_series(scenario, jobs=1, evaluator=_TPUT_K1) -> np.ndarray:
    """Hybrid k = 1 throughput at every snapshot of ``scenario``, Gbps."""
    with run_context(jobs=jobs):
        rows = map_snapshot_rows(
            scenario, [HYBRID], evaluator, row_len=1, label="fig4-k1"
        )
    return rows[HYBRID][0]


class TestThroughputSeries:
    def test_parallel_matches_serial(self, tiny_scenario):
        serial = _throughput_series(tiny_scenario, jobs=1)
        parallel = _throughput_series(tiny_scenario, jobs=2)
        np.testing.assert_array_equal(parallel, serial)

    def test_crashing_workers_do_not_skew_numbers(
        self, tiny_scenario, flag_dir, fast_retries
    ):
        baseline = _throughput_series(tiny_scenario, jobs=1)
        survived = _throughput_series(
            tiny_scenario,
            jobs=2,
            evaluator=functools.partial(_crash_once_per_snapshot, _TPUT_K1),
        )
        np.testing.assert_array_equal(survived, baseline)

    def test_resume_is_bit_identical(self, tiny_scenario, tmp_path):
        fresh = _throughput_series(tiny_scenario)
        with checkpoint_root(tmp_path):
            first = _throughput_series(tiny_scenario)
            with observe() as registry:
                resumed = _throughput_series(tiny_scenario)
        counters = registry.snapshot()["counters"]
        assert counters["checkpoint.hits"] == len(tiny_scenario.times_s)
        np.testing.assert_array_equal(first, fresh)
        np.testing.assert_array_equal(resumed, fresh)
        # The sweep landed under its throughput label, not the RTT one.
        assert any(
            p.name.startswith("fig4-k1-") for p in tmp_path.iterdir()
        )
