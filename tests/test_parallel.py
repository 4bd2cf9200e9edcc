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
from repro.core.parallel import (
    FaultPolicy,
    SnapshotFailure,
    SweepError,
    default_worker_count,
)
from repro.core.pipeline import _rtt_snapshot_row, compute_rtt_series_multi
from repro.faults import FaultSpec
from repro.network.graph import ConnectivityMode
from repro.obs import observe

BP = ConnectivityMode.BP_ONLY
HYBRID = ConnectivityMode.HYBRID


def _rtt(scenario, mode, **kwargs):
    return compute_rtt_series_multi(scenario, [mode], **kwargs)[mode]


class TestParallelRunner:
    def test_matches_serial_exactly(self, tiny_scenario):
        serial = _rtt(tiny_scenario, HYBRID)
        parallel = _rtt(tiny_scenario, HYBRID, processes=2)
        np.testing.assert_array_equal(parallel.rtt_ms, serial.rtt_ms)
        np.testing.assert_array_equal(parallel.times_s, serial.times_s)
        assert parallel.mode is serial.mode

    def test_bp_mode(self, tiny_scenario):
        serial = _rtt(tiny_scenario, BP)
        parallel = _rtt(tiny_scenario, BP, processes=2)
        np.testing.assert_array_equal(parallel.rtt_ms, serial.rtt_ms)

    def test_default_worker_count_positive(self):
        assert default_worker_count() >= 1


class TestParallelMultiMode:
    """Multi-mode sweeps: workers evaluate every mode per snapshot."""

    MODES = [BP, HYBRID]

    def test_matches_serial_multi_exactly(self, tiny_scenario):
        serial = compute_rtt_series_multi(tiny_scenario, self.MODES)
        parallel = compute_rtt_series_multi(tiny_scenario, self.MODES, processes=2)
        assert set(parallel) == set(self.MODES)
        for mode in self.MODES:
            np.testing.assert_array_equal(
                parallel[mode].rtt_ms, serial[mode].rtt_ms
            )
            np.testing.assert_array_equal(
                parallel[mode].times_s, serial[mode].times_s
            )
            assert parallel[mode].mode is mode


# Worker fault hooks: module-level so fork-started workers resolve them.
_FLAG_DIR_ENV = "REPRO_TEST_FAULT_FLAG_DIR"


def _always_crash(index: int, time_s: float) -> None:
    raise RuntimeError("injected worker crash")


def _crash_once_per_snapshot(index: int, time_s: float) -> None:
    flag = Path(os.environ[_FLAG_DIR_ENV]) / f"snapshot_{index}"
    if not flag.exists():
        flag.touch()
        raise RuntimeError("transient worker crash")


def _kill_worker_once_per_snapshot(index: int, time_s: float) -> None:
    flag = Path(os.environ[_FLAG_DIR_ENV]) / f"snapshot_{index}"
    if not flag.exists():
        flag.touch()
        os._exit(17)  # simulate an OOM kill: no exception, no cleanup


def _hang_first_snapshot_once(index: int, time_s: float) -> None:
    import time as time_module

    if index != 0:
        return
    flag = Path(os.environ[_FLAG_DIR_ENV]) / f"snapshot_{index}"
    if not flag.exists():
        flag.touch()
        time_module.sleep(4.0)


_FAST_RETRIES = FaultPolicy(max_attempts=3, backoff_base_s=0.01)


class TestFaultTolerance:
    @pytest.fixture()
    def baseline(self, tiny_scenario):
        return _rtt(tiny_scenario, BP)

    @pytest.fixture()
    def flag_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(_FLAG_DIR_ENV, str(tmp_path))
        return tmp_path

    def test_crashing_workers_rescued_by_serial_fallback(
        self, tiny_scenario, baseline
    ):
        result = _rtt(
            tiny_scenario,
            BP,
            processes=2,
            fault_hook=_always_crash,
            policy=FaultPolicy(max_attempts=2, backoff_base_s=0.0),
        )
        np.testing.assert_array_equal(result.rtt_ms, baseline.rtt_ms)

    def test_transient_crash_recovered_by_retry(
        self, tiny_scenario, baseline, flag_dir
    ):
        result = _rtt(
            tiny_scenario,
            BP,
            processes=2,
            fault_hook=_crash_once_per_snapshot,
            policy=FaultPolicy(
                max_attempts=3, backoff_base_s=0.01, serial_fallback=False
            ),
        )
        np.testing.assert_array_equal(result.rtt_ms, baseline.rtt_ms)
        # Every snapshot failed exactly once before its retry succeeded.
        assert len(list(flag_dir.iterdir())) == len(tiny_scenario.times_s)

    def test_dead_worker_pool_recreated(self, tiny_scenario, baseline, flag_dir):
        result = _rtt(
            tiny_scenario,
            BP,
            processes=2,
            fault_hook=_kill_worker_once_per_snapshot,
            policy=_FAST_RETRIES,
        )
        np.testing.assert_array_equal(result.rtt_ms, baseline.rtt_ms)

    def test_hung_worker_times_out_and_recovers(
        self, tiny_scenario, baseline, flag_dir
    ):
        result = _rtt(
            tiny_scenario,
            BP,
            processes=2,
            fault_hook=_hang_first_snapshot_once,
            policy=FaultPolicy(
                max_attempts=2, snapshot_timeout_s=1.0, backoff_base_s=0.01
            ),
        )
        np.testing.assert_array_equal(result.rtt_ms, baseline.rtt_ms)

    def test_irrecoverable_snapshots_raise_structured_sweep_error(
        self, tiny_scenario
    ):
        with pytest.raises(SweepError) as excinfo:
            _rtt(
                tiny_scenario,
                BP,
                processes=2,
                fault_hook=_always_crash,
                policy=FaultPolicy(
                    max_attempts=2, backoff_base_s=0.0, serial_fallback=False
                ),
            )
        failures = excinfo.value.failures
        assert [f.index for f in failures] == list(
            range(len(tiny_scenario.times_s))
        )
        for failure in failures:
            assert isinstance(failure, SnapshotFailure)
            assert failure.attempts == 2
            assert "injected worker crash" in failure.error
        assert "failed irrecoverably" in str(excinfo.value)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            FaultPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            FaultPolicy(backoff_base_s=-1.0)
        with pytest.raises(ValueError):
            FaultPolicy(snapshot_timeout_s=0.0)


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
    NO_RETRY = FaultPolicy(max_attempts=1, backoff_base_s=0.0, serial_fallback=False)

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
            pooled = compute_rtt_series_multi(
                tiny_scenario, modes, processes=2, policy=self.NO_RETRY
            )
        clean = compute_rtt_series_multi(tiny_scenario, modes)
        for mode in modes:
            np.testing.assert_array_equal(pooled[mode].rtt_ms, serial[mode].rtt_ms)
        # The spec really bites, so equality is not trivial.
        assert serial[BP].reachable_fraction() < clean[BP].reachable_fraction()

    @pytest.mark.parametrize("start_method", ["fork", "spawn"], indirect=True)
    def test_workers_see_parent_context(self, tiny_scenario, start_method, tmp_path):
        with observe(), run_context(
            faults=self.SPEC, checkpoint_root=tmp_path / "ck"
        ):
            parent = _context_view(tiny_scenario, 0.0, BP)
            rows = parallel.map_snapshot_rows(
                tiny_scenario,
                [BP],
                _context_view,
                row_len=4,
                label="context-view",
                processes=2,
                policy=self.NO_RETRY,
            )[BP]
        # Strict and collecting differ from a bare worker's defaults.
        assert parent[0] == 1.0 and parent[3] == 1.0
        assert rows.shape == (4, len(tiny_scenario.times_s))
        for column in rows.T:
            np.testing.assert_array_equal(column, parent)

    @pytest.mark.parametrize("start_method", ["spawn"], indirect=True)
    def test_strict_guard_raises_in_spawned_worker(self, tiny_scenario, start_method):
        def sweep():
            return parallel.map_snapshot_rows(
                tiny_scenario,
                [BP],
                _rtt_row_on_poisoned_graph,
                row_len=len(tiny_scenario.pairs),
                processes=2,
                policy=self.NO_RETRY,
            )

        with pytest.raises(SweepError) as excinfo:
            sweep()
        errors = [failure.error for failure in excinfo.value.failures]
        assert len(errors) == len(tiny_scenario.times_s)
        assert all("InvariantViolation" in error for error in errors)
        with run_context(strict=False):
            rows = sweep()
        assert rows[BP].shape == (len(tiny_scenario.pairs), len(tiny_scenario.times_s))
