"""Fault-tolerant snapshot mapping: the generic sweep engine.

Snapshots are embarrassingly parallel — each builds its own graph and
runs its own batched Dijkstra — so the paper-scale configuration (96
snapshots x 2 modes over a ~65k-node graph) parallelizes almost
perfectly across cores. This module provides the *generic* engine that
maps an arbitrary per-snapshot evaluator over a scenario's snapshot
grid, in-process (:func:`map_snapshot_rows_serial`) or across a worker
pool (:func:`map_snapshot_rows_parallel`), with identical output either
way. The RTT sweep (:func:`compute_rtt_series_parallel`), the
throughput series (:func:`repro.flows.throughput.throughput_series_gbps`),
and the fig4/fig5/disconnected experiments are all thin evaluators on
top of it.

An evaluator is a picklable callable ``evaluator(scenario, time_s,
mode) -> ndarray`` returning one float row per (snapshot, mode). A
worker task evaluates *every* requested mode of its snapshot, so the
modes share the worker's process-local geometry frame — the parallel
analogue of the serial sweep's time-outer/mode-inner loop.

Long sweeps must survive partial failure, so the pool is wrapped in a
resilience layer governed by :class:`FaultPolicy`:

* a per-snapshot timeout bounds hung workers — implemented with
  :func:`concurrent.futures.wait`, so one timeout window covers *all*
  in-flight stragglers instead of stacking a full window per hung
  future;
* failed snapshots are retried with exponential backoff, on a fresh
  pool when the old one died (``BrokenProcessPool`` — e.g. a worker
  OOM-killed mid-task);
* snapshots that keep failing fall back to serial in-process
  re-execution; only if that also fails does the sweep raise a
  :class:`SweepError` carrying structured :class:`SnapshotFailure`
  records.

Combined with :mod:`repro.core.checkpoint`, every completed snapshot is
persisted as it lands, so even a hard kill (power loss, SIGKILL) loses
at most the in-flight snapshots and a later run resumes from disk.
Sweeps with different meanings (RTT vs throughput rows) are kept apart
by the checkpoint ``label`` (see :func:`repro.core.checkpoint.checkpoint_for`).

The scenario and evaluator are shipped to workers once (pool
initializer), not once per snapshot; on fork-based platforms (Linux)
even that copy is copy-on-write.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections.abc import Mapping
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.checkpoint import RttCheckpoint, active_checkpoint_for
from repro.core.pipeline import RttSeries, _rtt_snapshot_row
from repro.core.scenario import Scenario
from repro.integrity.guards import check_rtt_series, strict_enabled
from repro.integrity.quarantine import note
from repro.network.graph import ConnectivityMode

__all__ = [
    "FaultPolicy",
    "SnapshotFailure",
    "SweepError",
    "compute_rtt_series_parallel",
    "compute_rtt_series_parallel_multi",
    "default_worker_count",
    "map_snapshot_rows_parallel",
    "map_snapshot_rows_serial",
]

#: Evaluator contract: one float row for one (snapshot, mode) cell.
SnapshotEvaluator = Callable[[Scenario, float, ConnectivityMode], np.ndarray]

# Worker-process state, set by the pool initializer. The scenario is
# unpickled without its engine (see ``Scenario.__getstate__``), so each
# worker lazily builds one process-local engine and every snapshot in
# its chunk — and every mode of each snapshot — shares that engine's
# static layer and geometry frames.
_WORKER_SCENARIO: Scenario | None = None
_WORKER_MODES: tuple[ConnectivityMode, ...] | None = None
_WORKER_EVALUATOR: SnapshotEvaluator | None = None
_WORKER_FAULT_HOOK: Callable[[int, float], None] | None = None
_WORKER_COLLECT_METRICS: bool = False


@dataclass(frozen=True)
class FaultPolicy:
    """How hard the parallel sweep fights for each snapshot.

    ``max_attempts`` counts pool rounds (1 = no retries); the wait
    before round *n* is ``backoff_base_s * 2**(n - 1)``.
    ``snapshot_timeout_s`` bounds how long the sweep waits without *any*
    snapshot completing (``None`` = forever); when a window passes with
    no progress, every still-outstanding snapshot is marked failed and
    the pool is considered suspect, so the next round gets a fresh one.
    ``serial_fallback`` re-runs still-failing snapshots in-process as
    the last resort.
    """

    max_attempts: int = 3
    snapshot_timeout_s: float | None = None
    backoff_base_s: float = 0.5
    serial_fallback: bool = True

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be non-negative")
        if self.snapshot_timeout_s is not None and self.snapshot_timeout_s <= 0:
            raise ValueError("snapshot_timeout_s must be positive (or None)")


@dataclass(frozen=True)
class SnapshotFailure:
    """One snapshot the sweep could not compute, with its failure story."""

    index: int
    time_s: float
    attempts: int
    error: str


class SweepError(RuntimeError):
    """A sweep finished with irrecoverable snapshots.

    Carries the structured :class:`SnapshotFailure` records; snapshots
    that *did* complete are already checkpointed (when a checkpoint is
    active), so a resumed run only re-attempts the failures.
    """

    def __init__(self, failures: list[SnapshotFailure]):
        self.failures = list(failures)
        detail = "; ".join(
            f"snapshot {f.index} (t={f.time_s:g}s, {f.attempts} attempt(s)): {f.error}"
            for f in self.failures[:5]
        )
        if len(self.failures) > 5:
            detail += f"; ... {len(self.failures) - 5} more"
        super().__init__(
            f"{len(self.failures)} snapshot(s) failed irrecoverably: {detail}"
        )


def default_worker_count() -> int:
    """A sensible worker count: physical-ish cores, at least 1."""
    return max((os.cpu_count() or 2) - 1, 1)


def _row_widths(modes, row_len) -> "dict[ConnectivityMode, int]":
    """Per-mode row width from an int or a mode -> width mapping."""
    if isinstance(row_len, Mapping):
        widths = {mode: int(row_len[mode]) for mode in modes}
    else:
        widths = {mode: int(row_len) for mode in modes}
    for mode, width in widths.items():
        if width < 0:
            raise ValueError(f"row_len for {mode} must be non-negative")
    return widths


def _resolve_checkpoints(
    scenario: Scenario,
    modes,
    checkpoints,
    label: str,
    times: np.ndarray,
    widths: "dict[ConnectivityMode, int]",
) -> "dict[ConnectivityMode, RttCheckpoint | None]":
    """Explicit checkpoints, with ambient-root fallback per mode."""
    resolved: dict[ConnectivityMode, RttCheckpoint | None] = dict(checkpoints or {})
    for mode in modes:
        if resolved.get(mode) is None:
            resolved[mode] = active_checkpoint_for(
                scenario, mode, label=label, times_s=times, row_len=widths[mode]
            )
    return resolved


def _coerce_row(row, width: int, mode: ConnectivityMode, time_s: float) -> np.ndarray:
    row = np.asarray(row, dtype=float)
    if row.shape != (width,):
        raise ValueError(
            f"evaluator returned shape {row.shape} for mode {mode.value} at "
            f"t={time_s:g}s, expected ({width},)"
        )
    return row


def map_snapshot_rows_serial(
    scenario: Scenario,
    modes,
    evaluator: SnapshotEvaluator,
    *,
    row_len,
    times_s: np.ndarray | None = None,
    label: str = "",
    checkpoints: "dict[ConnectivityMode, RttCheckpoint] | None" = None,
    progress: Callable[[int, int], None] | None = None,
) -> "dict[ConnectivityMode, np.ndarray]":
    """Evaluate every (snapshot, mode) cell in-process; rows as columns.

    The loop is time-outer, mode-inner: every requested mode of one
    snapshot is evaluated before the sweep moves to the next time, so a
    BP + hybrid comparison pays for satellite propagation and KD-tree
    visibility queries exactly once per snapshot (the engine's frame
    cache serves the second mode from memory).

    Returns ``{mode: array of shape (row_len[mode], num_snapshots)}``.
    ``row_len`` is an int, or a mapping when modes have different row
    widths (e.g. fig5's one BP number vs one hybrid number per ISL
    ratio). ``times_s`` defaults to the scenario's snapshot grid.
    ``label`` names the sweep for checkpointing — sweeps with different
    labels never share shards. ``checkpoints`` maps modes to
    checkpoints; modes without an entry fall back to the ambient
    checkpoint root (see :mod:`repro.core.checkpoint`). ``progress`` is
    called as ``progress(i + 1, total)`` after each snapshot.
    """
    modes = list(modes)
    times = scenario.times_s if times_s is None else np.asarray(times_s, dtype=float)
    widths = _row_widths(modes, row_len)
    resolved = _resolve_checkpoints(scenario, modes, checkpoints, label, times, widths)
    total = len(times)
    completed = {
        mode: (
            resolved[mode].completed_indices()
            if resolved[mode] is not None
            else frozenset()
        )
        for mode in modes
    }
    rows = {mode: np.full((widths[mode], total), np.inf) for mode in modes}
    for i, time_s in enumerate(times):
        for mode in modes:
            checkpoint = resolved[mode]
            if i in completed[mode]:
                obs.incr("checkpoint.hits")
                rows[mode][:, i] = checkpoint.load_snapshot(i)
                continue
            if checkpoint is not None:
                obs.incr("checkpoint.misses")
            with obs.span("snapshot"):
                row = _coerce_row(
                    evaluator(scenario, float(time_s), mode),
                    widths[mode],
                    mode,
                    float(time_s),
                )
            rows[mode][:, i] = row
            if checkpoint is not None:
                try:
                    checkpoint.store_snapshot(i, row)
                except OSError:
                    # Disk full (or gone): the sweep's numbers are
                    # unaffected — continue uncheckpointed and let
                    # the run summary surface the degradation.
                    note("store_errors")
        if progress is not None:
            progress(i + 1, total)
    return rows


def _init_worker(
    scenario: Scenario,
    modes: tuple[ConnectivityMode, ...],
    evaluator: SnapshotEvaluator,
    fault_hook: Callable[[int, float], None] | None = None,
    collect_metrics: bool = False,
) -> None:
    global _WORKER_SCENARIO, _WORKER_MODES, _WORKER_EVALUATOR
    global _WORKER_FAULT_HOOK, _WORKER_COLLECT_METRICS
    _WORKER_SCENARIO = scenario
    _WORKER_MODES = tuple(modes)
    _WORKER_EVALUATOR = evaluator
    _WORKER_FAULT_HOOK = fault_hook
    _WORKER_COLLECT_METRICS = collect_metrics


def _snapshot_rows(time_s: float) -> "dict[ConnectivityMode, np.ndarray]":
    assert _WORKER_SCENARIO is not None and _WORKER_MODES is not None
    assert _WORKER_EVALUATOR is not None
    rows = {}
    for mode in _WORKER_MODES:
        # One ``snapshot`` span per (time, mode), matching the serial
        # map's span shape; all modes assemble from one cached geometry
        # frame via the worker's process-local engine.
        with obs.span("snapshot"):
            rows[mode] = np.asarray(
                _WORKER_EVALUATOR(_WORKER_SCENARIO, float(time_s), mode),
                dtype=float,
            )
    return rows


def _eval_snapshot(
    index: int, time_s: float
) -> "tuple[dict[ConnectivityMode, np.ndarray], dict | None]":
    """Worker task: one snapshot's rows (fault hook first, for tests).

    Returns ``(rows_by_mode, metrics_payload)``: when the parent is
    profiling, each task collects its own span/counter aggregate and
    ships it back alongside the result — the same future the fault
    policy already watches — so worker instrumentation survives retries,
    pool recreation, and the serial fallback without a side channel.
    """
    if not _WORKER_COLLECT_METRICS:
        if _WORKER_FAULT_HOOK is not None:
            _WORKER_FAULT_HOOK(index, time_s)
        return _snapshot_rows(time_s), None
    with obs.observe() as registry:
        if _WORKER_FAULT_HOOK is not None:
            _WORKER_FAULT_HOOK(index, time_s)
        rows = _snapshot_rows(time_s)
    return rows, registry.snapshot()


def map_snapshot_rows_parallel(
    scenario: Scenario,
    modes,
    evaluator: SnapshotEvaluator,
    *,
    row_len,
    times_s: np.ndarray | None = None,
    label: str = "",
    processes: int | None = None,
    checkpoints: "dict[ConnectivityMode, RttCheckpoint] | None" = None,
    policy: FaultPolicy | None = None,
    progress: Callable[[int, int], None] | None = None,
    fault_hook: Callable[[int, float], None] | None = None,
) -> "dict[ConnectivityMode, np.ndarray]":
    """Parallel :func:`map_snapshot_rows_serial` with fault tolerance.

    Each worker task evaluates *all* requested modes of one snapshot, so
    the modes share the worker's process-local geometry frame. Results
    are bit-identical to the serial map (each snapshot's evaluation is
    deterministic and independent); with ``processes <= 1`` (or a single
    snapshot) the call simply delegates to the serial map.

    ``evaluator`` must be picklable (a module-level function, or a
    ``functools.partial`` of one). ``policy`` tunes the retry/timeout/
    fallback behaviour; see :class:`FaultPolicy` — notably the timeout
    bounds *stalls* (no snapshot completing within the window), so one
    hung worker among many stragglers costs one window, not one window
    each. ``progress`` is called as ``progress(done, total)`` as
    snapshots land (a snapshot counts once all its modes are in).
    ``fault_hook`` is a test seam: a picklable callable run inside each
    worker, once per snapshot, before the real computation
    (raise/hang/exit to simulate crashes); the serial fallback and
    resumed rows never invoke it.
    """
    modes = list(modes)
    times = scenario.times_s if times_s is None else np.asarray(times_s, dtype=float)
    widths = _row_widths(modes, row_len)
    total = len(times)
    policy = policy or FaultPolicy()
    resolved = _resolve_checkpoints(scenario, modes, checkpoints, label, times, widths)

    rows: dict[ConnectivityMode, dict[int, np.ndarray]] = {}
    for mode in modes:
        checkpoint = resolved[mode]
        rows[mode] = checkpoint.load_completed() if checkpoint is not None else {}
    # Resumed rows are counted like the serial map counts them, so
    # resume is observable regardless of which entry point served it —
    # but only on paths that don't delegate to the serial map (which
    # re-discovers and counts the same shards itself).
    resumed_rows = sum(len(rows[mode]) for mode in modes)

    def done_count() -> int:
        return sum(
            1
            for i in range(total)
            if all(i in rows[mode] for mode in modes)
        )

    done = done_count()
    if done and progress is not None:
        progress(done, total)
    pending = [
        i for i in range(total) if any(i not in rows[mode] for mode in modes)
    ]

    def finish() -> "dict[ConnectivityMode, np.ndarray]":
        return {
            mode: (
                np.stack([rows[mode][i] for i in range(total)], axis=1)
                if total
                else np.full((widths[mode], 0), np.inf)
            )
            for mode in modes
        }

    if not pending:
        if resumed_rows:
            obs.incr("checkpoint.hits", resumed_rows)
        return finish()

    processes = processes or default_worker_count()
    if processes <= 1 or total == 1:
        return map_snapshot_rows_serial(
            scenario,
            modes,
            evaluator,
            row_len=row_len,
            times_s=times,
            label=label,
            checkpoints=resolved,
            progress=progress,
        )

    if resumed_rows:
        obs.incr("checkpoint.hits", resumed_rows)

    # Materialize lazy state before forking so workers don't redo it.
    scenario.ground
    scenario.pairs

    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    )

    collect_metrics = obs.active_registry() is not None

    def make_executor() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=min(processes, len(pending)),
            mp_context=context,
            initializer=_init_worker,
            initargs=(scenario, tuple(modes), evaluator, fault_hook, collect_metrics),
        )

    def record(index: int, mode_rows: "dict[ConnectivityMode, np.ndarray]") -> None:
        for mode in modes:
            if index in rows[mode]:
                continue  # Resumed from this mode's checkpoint already.
            row = _coerce_row(
                mode_rows[mode], widths[mode], mode, float(times[index])
            )
            rows[mode][index] = row
            checkpoint = resolved[mode]
            if checkpoint is not None:
                try:
                    checkpoint.store_snapshot(index, row)
                except OSError:
                    # Disk full: keep the in-memory row, skip the shard,
                    # surface the degradation via the integrity counters.
                    note("store_errors")
        if progress is not None:
            progress(done_count(), total)

    attempts = dict.fromkeys(pending, 0)
    errors: dict[int, str] = {}
    remaining = list(pending)
    executor = make_executor()
    try:
        for round_number in range(policy.max_attempts):
            if not remaining:
                break
            if round_number:
                obs.incr("parallel.worker_retries", len(remaining))
                if policy.backoff_base_s:
                    time.sleep(policy.backoff_base_s * 2 ** (round_number - 1))
            future_index = {
                executor.submit(_eval_snapshot, index, float(times[index])): index
                for index in remaining
            }
            for index in remaining:
                attempts[index] += 1
            failed: list[int] = []
            pool_suspect = False
            outstanding = set(future_index)
            while outstanding:
                # One bounded wait for the whole in-flight set: the
                # timeout fires only when a full window passes with *no*
                # snapshot completing, so N stragglers cost one window,
                # not N sequential windows.
                finished, outstanding = wait(
                    outstanding,
                    timeout=policy.snapshot_timeout_s,
                    return_when=FIRST_COMPLETED,
                )
                if not finished:
                    # Stalled: every outstanding worker is presumed hung.
                    for future in outstanding:
                        index = future_index[future]
                        future.cancel()
                        failed.append(index)
                        obs.incr("parallel.timeouts")
                        errors[index] = (
                            f"timed out after {policy.snapshot_timeout_s:g}s "
                            "without sweep progress"
                        )
                    pool_suspect = True
                    break
                for future in finished:
                    index = future_index[future]
                    try:
                        mode_rows, worker_metrics = future.result()
                    except BrokenProcessPool as exc:
                        pool_suspect = True
                        failed.append(index)
                        errors[index] = (
                            f"worker died ({exc.__class__.__name__}: {exc})"
                        )
                    except Exception as exc:
                        failed.append(index)
                        errors[index] = f"{exc.__class__.__name__}: {exc}"
                    else:
                        if worker_metrics is not None:
                            obs.merge_payload(worker_metrics)
                        record(index, mode_rows)
            remaining = failed
            if pool_suspect and remaining:
                obs.incr("parallel.pool_recreations")
                executor.shutdown(wait=False, cancel_futures=True)
                executor = make_executor()
    finally:
        executor.shutdown(wait=False, cancel_futures=True)

    if remaining and policy.serial_fallback:
        still_failing: list[int] = []
        for index in remaining:
            attempts[index] += 1
            obs.incr("parallel.serial_fallbacks")
            try:
                # Runs in-process: spans land on the parent registry and
                # the modes share the parent engine's geometry frame.
                mode_rows = {
                    mode: evaluator(scenario, float(times[index]), mode)
                    for mode in modes
                }
            except Exception as exc:
                errors[index] = f"serial fallback: {exc.__class__.__name__}: {exc}"
                still_failing.append(index)
            else:
                record(index, mode_rows)
        remaining = still_failing

    if remaining:
        raise SweepError(
            [
                SnapshotFailure(
                    index=index,
                    time_s=float(times[index]),
                    attempts=attempts[index],
                    error=errors.get(index, "unknown error"),
                )
                for index in sorted(remaining)
            ]
        )

    return finish()


def compute_rtt_series_parallel_multi(
    scenario: Scenario,
    modes,
    processes: int | None = None,
    *,
    checkpoints: "dict[ConnectivityMode, RttCheckpoint] | None" = None,
    policy: FaultPolicy | None = None,
    progress: Callable[[int, int], None] | None = None,
    fault_hook: Callable[[int, float], None] | None = None,
) -> "dict[ConnectivityMode, RttSeries]":
    """Parallel multi-mode replacement for ``compute_rtt_series_multi``.

    A thin RTT evaluator over :func:`map_snapshot_rows_parallel` — see
    that function for the parallelism, checkpoint, and fault-tolerance
    contract. Results are bit-identical to the serial version.
    """
    modes = list(modes)
    times = scenario.times_s
    resolved = _resolve_checkpoints(
        scenario, modes, checkpoints, "", times, _row_widths(modes, len(scenario.pairs))
    )
    processes = processes or default_worker_count()
    if processes <= 1 or len(times) == 1:
        from repro.core.pipeline import compute_rtt_series_multi

        return compute_rtt_series_multi(
            scenario, modes, progress=progress, checkpoints=resolved
        )
    rows = map_snapshot_rows_parallel(
        scenario,
        modes,
        _rtt_snapshot_row,
        row_len=len(scenario.pairs),
        processes=processes,
        checkpoints=resolved,
        policy=policy,
        progress=progress,
        fault_hook=fault_hook,
    )
    series = {
        mode: RttSeries(mode=mode, times_s=times, rtt_ms=rows[mode])
        for mode in modes
    }
    if strict_enabled():
        for mode in modes:
            check_rtt_series(
                series[mode], scenario.pairs, source=f"rtt[{mode.value}]"
            )
    return series


def compute_rtt_series_parallel(
    scenario: Scenario,
    mode: ConnectivityMode,
    processes: int | None = None,
    *,
    checkpoint: RttCheckpoint | None = None,
    policy: FaultPolicy | None = None,
    progress: Callable[[int, int], None] | None = None,
    fault_hook: Callable[[int, float], None] | None = None,
) -> RttSeries:
    """Drop-in parallel replacement for ``compute_rtt_series``.

    Single-mode wrapper over :func:`compute_rtt_series_parallel_multi`.
    Results are bit-identical to the serial version (each snapshot's
    computation is deterministic and independent). Falls back to the
    serial path when only one process is requested.

    ``checkpoint`` (or the ambient checkpoint root, see
    :mod:`repro.core.checkpoint`) makes the sweep resumable: completed
    snapshots are loaded from disk instead of recomputed, and every new
    row is persisted the moment it lands. ``policy`` tunes the
    retry/timeout/fallback behaviour. ``progress`` is called as
    ``progress(done, total)`` as rows land. ``fault_hook`` is a test
    seam: a picklable callable run inside each worker before the real
    computation (raise/hang/exit to simulate crashes); the serial
    fallback and resumed rows never invoke it.
    """
    series = compute_rtt_series_parallel_multi(
        scenario,
        [mode],
        processes,
        checkpoints={mode: checkpoint} if checkpoint is not None else None,
        policy=policy,
        progress=progress,
        fault_hook=fault_hook,
    )
    return series[mode]
