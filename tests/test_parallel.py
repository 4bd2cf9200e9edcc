"""Tests for the parallel RTT sweep and its fault tolerance."""

import dataclasses
import multiprocessing
import os
import zlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.context import current, run_context
from repro.core import parallel
from repro.core.parallel import SnapshotFailure, SweepError
from repro.core.pipeline import _rtt_snapshot_row, compute_rtt_series_multi
from repro.core.runner import run_experiments
from repro.faults import FaultSpec
from repro.network.graph import ConnectivityMode
from repro.obs import observe
from tests.conftest import TINY_SCALE

BP = ConnectivityMode.BP_ONLY
HYBRID = ConnectivityMode.HYBRID


def _rtt(scenario, mode, jobs=1):
    with run_context(jobs=jobs):
        return compute_rtt_series_multi(scenario, [mode])[mode]


def _bp_rows(scenario, evaluator):
    """One BP sweep of ``evaluator`` on two workers; rows as columns."""
    with run_context(jobs=2):
        return parallel.map_snapshot_rows(
            scenario, [BP], evaluator, row_len=len(scenario.pairs)
        )[BP]


class TestParallelRunner:
    def test_matches_serial_exactly(self, tiny_scenario):
        serial = _rtt(tiny_scenario, HYBRID)
        parallel = _rtt(tiny_scenario, HYBRID, jobs=2)
        np.testing.assert_array_equal(parallel.rtt_ms, serial.rtt_ms)
        np.testing.assert_array_equal(parallel.times_s, serial.times_s)
        assert parallel.mode is serial.mode

    def test_bp_mode(self, tiny_scenario):
        serial = _rtt(tiny_scenario, BP)
        parallel = _rtt(tiny_scenario, BP, jobs=2)
        np.testing.assert_array_equal(parallel.rtt_ms, serial.rtt_ms)


class TestParallelMultiMode:
    """Multi-mode sweeps: workers evaluate every mode per snapshot."""

    MODES = [BP, HYBRID]

    def test_matches_serial_multi_exactly(self, tiny_scenario):
        serial = compute_rtt_series_multi(tiny_scenario, self.MODES)
        with run_context(jobs=2):
            parallel = compute_rtt_series_multi(tiny_scenario, self.MODES)
        assert set(parallel) == set(self.MODES)
        for mode in self.MODES:
            np.testing.assert_array_equal(
                parallel[mode].rtt_ms, serial[mode].rtt_ms
            )
            np.testing.assert_array_equal(
                parallel[mode].times_s, serial[mode].times_s
            )
            assert parallel[mode].mode is mode


# Failing evaluators: the real RTT row, broken only inside pool workers
# (so the in-process serial fallback succeeds) or everywhere. Module-level
# so fork- and spawn-started workers resolve them; keyed by snapshot time.
_FLAG_DIR_ENV = "REPRO_TEST_FAULT_FLAG_DIR"


def _in_worker() -> bool:
    return multiprocessing.parent_process() is not None


def _first_time_here(time_s: float) -> bool:
    """True on the first call for ``time_s`` across all processes."""
    flag = Path(os.environ[_FLAG_DIR_ENV]) / f"snapshot_{time_s:g}"
    if flag.exists():
        return False
    flag.touch()
    return True


def _crash_in_workers(scenario, time_s, mode):
    if _in_worker():
        raise RuntimeError("injected worker crash")
    return _rtt_snapshot_row(scenario, time_s, mode)


def _crash_everywhere(scenario, time_s, mode):
    raise RuntimeError("injected worker crash")


def _crash_once_per_snapshot(scenario, time_s, mode):
    if _in_worker() and _first_time_here(time_s):
        raise RuntimeError("transient worker crash")
    return _rtt_snapshot_row(scenario, time_s, mode)


def _kill_worker_once_per_snapshot(scenario, time_s, mode):
    if _in_worker() and _first_time_here(time_s):
        os._exit(17)  # simulate an OOM kill: no exception, no cleanup
    return _rtt_snapshot_row(scenario, time_s, mode)


def _hang_first_snapshot_once(scenario, time_s, mode):
    import time as time_module

    if _in_worker() and time_s == scenario.times_s[0] and _first_time_here(time_s):
        time_module.sleep(4.0)
    return _rtt_snapshot_row(scenario, time_s, mode)


class TestFaultTolerance:
    @pytest.fixture()
    def baseline(self, tiny_scenario):
        return _rtt(tiny_scenario, BP)

    @pytest.fixture()
    def flag_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(_FLAG_DIR_ENV, str(tmp_path))
        return tmp_path

    @pytest.fixture(autouse=True)
    def fast_retries(self, monkeypatch):
        monkeypatch.setattr(parallel, "BACKOFF_BASE_S", 0.01)

    def test_crashing_workers_rescued_by_serial_fallback(
        self, tiny_scenario, baseline, monkeypatch
    ):
        monkeypatch.setattr(parallel, "MAX_ATTEMPTS", 2)
        rows = _bp_rows(tiny_scenario, _crash_in_workers)
        np.testing.assert_array_equal(rows, baseline.rtt_ms)

    def test_transient_crash_recovered_by_retry(
        self, tiny_scenario, baseline, flag_dir
    ):
        with observe() as registry:
            rows = _bp_rows(tiny_scenario, _crash_once_per_snapshot)
        np.testing.assert_array_equal(rows, baseline.rtt_ms)
        # Every snapshot failed exactly once before its retry succeeded.
        assert len(list(flag_dir.iterdir())) == len(tiny_scenario.times_s)
        assert "parallel.serial_fallbacks" not in registry.snapshot()["counters"]

    def test_dead_worker_pool_recreated(self, tiny_scenario, baseline, flag_dir):
        rows = _bp_rows(tiny_scenario, _kill_worker_once_per_snapshot)
        np.testing.assert_array_equal(rows, baseline.rtt_ms)

    def test_hung_worker_times_out_and_recovers(
        self, tiny_scenario, baseline, flag_dir, monkeypatch
    ):
        monkeypatch.setattr(parallel, "MAX_ATTEMPTS", 2)
        monkeypatch.setattr(parallel, "SNAPSHOT_TIMEOUT_S", 1.0)
        rows = _bp_rows(tiny_scenario, _hang_first_snapshot_once)
        np.testing.assert_array_equal(rows, baseline.rtt_ms)

    def test_irrecoverable_snapshots_raise_structured_sweep_error(
        self, tiny_scenario, monkeypatch
    ):
        # One pool round, then the serial fallback: two attempts each.
        monkeypatch.setattr(parallel, "MAX_ATTEMPTS", 1)
        with pytest.raises(SweepError) as excinfo:
            _bp_rows(tiny_scenario, _crash_everywhere)
        failures = excinfo.value.failures
        assert [f.index for f in failures] == list(
            range(len(tiny_scenario.times_s))
        )
        for failure in failures:
            assert isinstance(failure, SnapshotFailure)
            assert failure.attempts == 2
            assert "injected worker crash" in failure.error
        assert "failed irrecoverably" in str(excinfo.value)


def _rtt_row_on_poisoned_graph(scenario, time_s, mode) -> np.ndarray:
    """The RTT evaluator on a graph that fails the strict guard."""
    graph = scenario.graph_at(time_s, mode)
    gt_ecef = graph.gt_ecef.copy()
    gt_ecef[0] = np.nan
    poisoned = dataclasses.replace(graph, gt_ecef=gt_ecef)
    with mock.patch.object(type(scenario), "graph_at", lambda *args: poisoned):
        return _rtt_snapshot_row(scenario, time_s, mode)


def _context_view(scenario, time_s, mode):
    """The evaluating process's run context as one row.

    Strict flag, CRC of the fault spec, CRC of the checkpoint root, and
    whether a registry is collecting.
    """
    context = current()
    return np.array(
        [
            float(context.strict),
            zlib.crc32(repr(context.faults).encode()),
            zlib.crc32(repr(context.checkpoint_root).encode()),
            float(context.registry is not None),
        ]
    )


class TestStartMethodParity:
    """Workers run under the parent's run context.

    A fork-started worker inherits module globals; a spawn-started one
    imports everything afresh, so it sees the parent's context only
    because the pool initializer installs it.
    """

    SPEC = FaultSpec(sat=0.5, seed=7)

    @pytest.fixture(autouse=True)
    def no_retry(self, monkeypatch):
        monkeypatch.setattr(parallel, "MAX_ATTEMPTS", 1)
        monkeypatch.setattr(parallel, "BACKOFF_BASE_S", 0.0)

    @staticmethod
    def assert_rows_from_workers(registry):
        """No snapshot was recomputed in-process after its pool round."""
        assert "parallel.serial_fallbacks" not in registry.snapshot()["counters"]

    @pytest.fixture()
    def start_method(self, request, monkeypatch):
        method = request.param
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{method} start method unavailable")
        monkeypatch.setattr(
            parallel, "_pool_context", lambda: multiprocessing.get_context(method)
        )
        return method

    @pytest.mark.parametrize("start_method", ["fork", "spawn"], indirect=True)
    def test_rows_match_serial_under_fault_spec(self, tiny_scenario, start_method):
        modes = [BP, HYBRID]
        with run_context(faults=self.SPEC):
            serial = compute_rtt_series_multi(tiny_scenario, modes)
            with observe() as registry, run_context(jobs=2):
                pooled = compute_rtt_series_multi(tiny_scenario, modes)
        self.assert_rows_from_workers(registry)
        clean = compute_rtt_series_multi(tiny_scenario, modes)
        for mode in modes:
            np.testing.assert_array_equal(pooled[mode].rtt_ms, serial[mode].rtt_ms)
        # The spec really bites, so equality is not trivial.
        assert serial[BP].reachable_fraction() < clean[BP].reachable_fraction()

    @pytest.mark.parametrize("start_method", ["fork", "spawn"], indirect=True)
    def test_workers_see_parent_context(self, tiny_scenario, start_method, tmp_path):
        with observe() as registry, run_context(
            faults=self.SPEC, checkpoint_root=tmp_path / "ck"
        ):
            parent = _context_view(tiny_scenario, 0.0, BP)
            with run_context(jobs=2):
                rows = parallel.map_snapshot_rows(
                    tiny_scenario,
                    [BP],
                    _context_view,
                    row_len=4,
                    label="context-view",
                )[BP]
        self.assert_rows_from_workers(registry)
        # Strict and collecting differ from a bare worker's defaults.
        assert parent[0] == 1.0 and parent[3] == 1.0
        assert rows.shape == (4, len(tiny_scenario.times_s))
        for column in rows.T:
            np.testing.assert_array_equal(column, parent)

    @pytest.mark.parametrize("start_method", ["spawn"], indirect=True)
    def test_strict_guard_raises_in_spawned_worker(self, tiny_scenario, start_method):
        def sweep():
            return _bp_rows(tiny_scenario, _rtt_row_on_poisoned_graph)

        with pytest.raises(SweepError) as excinfo:
            sweep()
        errors = [failure.error for failure in excinfo.value.failures]
        assert len(errors) == len(tiny_scenario.times_s)
        # The spawned worker raised, not only the in-process fallback.
        for error in errors:
            pool_error, fallback_error = error.split("; serial fallback: ")
            assert pool_error.startswith("pool: InvariantViolation")
            assert fallback_error.startswith("InvariantViolation")
        with run_context(strict=False):
            rows = sweep()
        assert rows.shape == (len(tiny_scenario.pairs), len(tiny_scenario.times_s))

    @pytest.mark.parametrize("start_method", ["fork", "spawn"], indirect=True)
    def test_run_writes_identical_json_at_any_jobs(
        self, start_method, tmp_path, monkeypatch
    ):
        pooled = []
        map_on_pool = parallel._map_on_pool
        monkeypatch.setattr(
            parallel,
            "_map_on_pool",
            lambda *args: pooled.append(len(args[3])) or map_on_pool(*args),
        )
        for jobs in (1, 2):
            with observe() as registry:
                run_experiments(
                    ["fig2"],
                    scale=TINY_SCALE,
                    out_dir=tmp_path / f"jobs{jobs}",
                    jobs=jobs,
                    echo=lambda line: None,
                )
            self.assert_rows_from_workers(registry)
        # Only the jobs=2 run went through the pool, one sweep of every
        # snapshot, and its workers computed every row.
        assert pooled == [TINY_SCALE.num_snapshots]
        written = [
            (tmp_path / f"jobs{jobs}" / "fig2.json").read_bytes() for jobs in (1, 2)
        ]
        assert written[0] == written[1]
