"""Fault-tolerant snapshot mapping: the one sweep engine.

Snapshots are embarrassingly parallel — each builds its own graph and
runs its own batched Dijkstra — so the paper-scale configuration (96
snapshots x 2 modes over a ~65k-node graph) parallelizes almost
perfectly across cores. :func:`map_snapshot_rows` maps an arbitrary
per-snapshot evaluator over a scenario's snapshot grid, in-process
(the run context's ``jobs`` = 1, the default) or across a pool of
``jobs`` workers (``repro run --jobs N``), with identical output either
way. The RTT sweep
(:func:`repro.core.pipeline.compute_rtt_series_multi`) and the
fig4/fig5/disconnected experiments are all thin evaluators on top of it.

An evaluator is a picklable callable ``evaluator(scenario, time_s,
mode) -> ndarray`` returning one float row per (snapshot, mode). One
snapshot's missing modes are evaluated together, in-process or in one
worker task, so they share one geometry frame (time-outer, mode-inner).

Long sweeps must survive partial failure, so the pool is wrapped in a
resilience layer governed by three module constants
(:data:`MAX_ATTEMPTS`, :data:`BACKOFF_BASE_S`, :data:`SNAPSHOT_TIMEOUT_S`):

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
  records, whose error names both the last pool failure and the
  fallback's.

Under the run context's checkpoint root (:mod:`repro.core.checkpoint`),
every completed snapshot is persisted as it lands, so even a hard kill
(power loss, SIGKILL) loses at most the in-flight snapshots and a later
run resumes from disk.
Sweeps with different meanings (RTT vs throughput rows) are kept apart
by the checkpoint ``label`` (see :func:`repro.core.checkpoint.checkpoint_for`).

The scenario and evaluator are shipped to workers once (pool
initializer), not once per snapshot; on fork-based platforms (Linux)
even that copy is copy-on-write. The parent's whole run context
(:mod:`repro.context`) travels with them, so spawn-started workers
compute exactly what forked ones do.
"""

from __future__ import annotations

import contextlib
import dataclasses
import multiprocessing
import time
from collections.abc import Mapping
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.context import RunContext, current, install
from repro.core.checkpoint import checkpoint_for
from repro.core.scenario import Scenario
from repro.integrity.quarantine import note
from repro.network.graph import ConnectivityMode

__all__ = ["SnapshotFailure", "SweepError", "map_snapshot_rows"]

#: Evaluator contract: one float row for one (snapshot, mode) cell.
SnapshotEvaluator = Callable[[Scenario, float, ConnectivityMode], np.ndarray]

# Worker-process state, set by the pool initializer: (scenario,
# evaluator, snapshot times, collect metrics). The scenario
# is unpickled without its engine (see ``Scenario.__getstate__``), so
# each worker lazily builds one process-local engine and every snapshot
# it evaluates — and every mode of each snapshot — shares that engine's
# static layer and geometry frames.
_WORKER: tuple | None = None


#: Pool rounds per snapshot (1 = no retries).
MAX_ATTEMPTS = 3
#: The wait before pool round *n* is ``BACKOFF_BASE_S * 2**(n - 1)``.
BACKOFF_BASE_S = 0.5
#: How long the sweep waits without *any* snapshot completing (``None``
#: = forever). When a window passes with no progress, every outstanding
#: snapshot is marked failed and the next round gets a fresh pool.
SNAPSHOT_TIMEOUT_S: float | None = None


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


def _coerce_row(row, width: int, mode: ConnectivityMode, time_s: float) -> np.ndarray:
    row = np.asarray(row, dtype=float)
    if row.shape != (width,):
        raise ValueError(
            f"evaluator returned shape {row.shape} for mode {mode.value} at "
            f"t={time_s:g}s, expected ({width},)"
        )
    return row


def _eval_cells(
    scenario: Scenario, evaluator: SnapshotEvaluator, time_s: float, modes
) -> "dict[ConnectivityMode, np.ndarray]":
    """Evaluate ``modes`` of one snapshot, one ``snapshot`` span per mode.

    The one cell function: the in-process loop, pool workers and the
    serial fallback all run it, so every path has the same span shape.
    """
    rows = {}
    for mode in modes:
        with obs.span("snapshot"):
            rows[mode] = evaluator(scenario, time_s, mode)
    return rows


def map_snapshot_rows(
    scenario: Scenario,
    modes,
    evaluator: SnapshotEvaluator,
    *,
    row_len,
    times_s: np.ndarray | None = None,
    label: str = "",
    progress: Callable[[int, int], None] | None = None,
) -> "dict[ConnectivityMode, np.ndarray]":
    """Evaluate every (snapshot, mode) cell; rows as columns.

    Returns ``{mode: array of shape (row_len[mode], num_snapshots)}``.
    ``row_len`` is an int, or a mapping when modes have different row
    widths (e.g. fig5's one BP number vs one hybrid number per ISL
    ratio). ``times_s`` defaults to the scenario's snapshot grid.

    Under the run context's checkpoint root (see
    :func:`repro.core.checkpoint.checkpoint_root`) each mode checkpoints
    in the directory :func:`repro.core.checkpoint.checkpoint_for` derives
    from the scenario, mode and ``label`` — sweeps with different labels
    never share shards. Resume verifies each mode's shards once, loads
    them, and evaluates only the missing cells; every new row is stored
    the moment it lands. A rerun under the same root loads every shard
    and evaluates nothing. Without a root nothing is persisted.

    With the run context's ``jobs`` = 1 the map evaluates in-process,
    time-outer and mode-inner, so a BP + hybrid sweep pays for
    propagation and visibility queries once per snapshot; evaluator
    exceptions propagate unchanged. With more jobs and more than one
    pending snapshot, each worker task evaluates one snapshot's missing
    modes; ``evaluator`` must then be picklable (a module-level
    function, or a ``functools.partial`` of one), and failures are
    retried, re-run in-process, and finally raised as a
    :class:`SweepError` (see the module docstring). Rows are
    bit-identical either way.

    ``progress(done, total)`` is called once for the resumed snapshots
    (when there are any), then once per completed snapshot; ``done``
    never decreases and ends at ``total``. A snapshot completes when all
    its modes are in.
    """
    modes = list(modes)
    times = scenario.times_s if times_s is None else np.asarray(times_s, dtype=float)
    widths = _row_widths(modes, row_len)
    total = len(times)

    # Resume: one verification pass per mode, then only those shards load.
    rows = {mode: np.full((widths[mode], total), np.inf) for mode in modes}
    missing: dict[int, list[ConnectivityMode]] = {i: [] for i in range(total)}
    context = current()
    checkpoints = {}
    for mode in modes:
        checkpoint = checkpoints[mode] = (
            None
            if context.checkpoint_root is None
            else checkpoint_for(
                context.checkpoint_root,
                scenario,
                mode,
                context.fresh,
                label=label,
                times_s=times,
                row_len=widths[mode],
            )
        )
        completed = checkpoint.completed_indices() if checkpoint is not None else ()
        for i in range(total):
            if i in completed:
                rows[mode][:, i] = checkpoint.load_snapshot(i)
            else:
                missing[i].append(mode)
        if completed:
            obs.incr("checkpoint.hits", len(completed))
    pending = {i: cell_modes for i, cell_modes in missing.items() if cell_modes}
    done = total - len(pending)
    if done and progress is not None:
        progress(done, total)

    def record(index: int, mode_rows: "dict[ConnectivityMode, np.ndarray]") -> None:
        nonlocal done
        for mode, row in mode_rows.items():
            row = _coerce_row(row, widths[mode], mode, float(times[index]))
            rows[mode][:, index] = row
            checkpoint = checkpoints[mode]
            if checkpoint is not None:
                obs.incr("checkpoint.misses")
                try:
                    checkpoint.store_snapshot(index, row)
                except OSError:
                    # Disk full (or gone): the sweep's numbers are
                    # unaffected — continue uncheckpointed and let the
                    # run summary surface the degradation.
                    note("store_errors")
        done += 1
        if progress is not None:
            progress(done, total)

    if context.jobs > 1 and len(pending) > 1:
        _map_on_pool(scenario, evaluator, times, pending, record)
    else:
        for index, cell_modes in pending.items():
            record(index, _eval_cells(scenario, evaluator, float(times[index]), cell_modes))
    return rows


def _init_worker(
    scenario: Scenario,
    evaluator: SnapshotEvaluator,
    times: np.ndarray,
    context: RunContext,
    collect_metrics: bool,
) -> None:
    global _WORKER
    # Installed explicitly: a spawn-started worker inherits no globals,
    # and a fork-started one must not keep the parent's registry.
    install(context)
    _WORKER = (scenario, evaluator, times, collect_metrics)


def _eval_snapshot(
    index: int, modes
) -> "tuple[dict[ConnectivityMode, np.ndarray], dict | None]":
    """Worker task: one snapshot's rows.

    Returns ``(rows_by_mode, metrics_payload)``: when the parent is
    profiling, each task collects its own span/counter aggregate and
    ships it back alongside the result — the same future the retry
    loop already watches — so worker instrumentation survives retries,
    pool recreation, and the serial fallback without a side channel.
    """
    assert _WORKER is not None
    scenario, evaluator, times, collect_metrics = _WORKER
    with obs.observe() if collect_metrics else contextlib.nullcontext() as registry:
        rows = _eval_cells(scenario, evaluator, float(times[index]), modes)
    return rows, None if registry is None else registry.snapshot()


def _pool_context():
    """Start method for worker pools: fork (copy-on-write) where available."""
    return multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    )


def _map_on_pool(
    scenario: Scenario,
    evaluator: SnapshotEvaluator,
    times: np.ndarray,
    pending: "dict[int, list[ConnectivityMode]]",
    record: Callable,
) -> None:
    """Evaluate ``pending`` snapshots on a worker pool, feeding ``record``."""
    # Materialize lazy state before forking so workers don't redo it.
    scenario.ground
    scenario.pairs
    mp_context = _pool_context()
    # Workers run under the parent's context minus its registry, which
    # holds a lock and cannot be pickled; each task collects into its
    # own registry instead when the parent is collecting.
    parent = current()
    worker_context = dataclasses.replace(parent, registry=None)
    collect_metrics = parent.registry is not None

    def make_executor() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=min(parent.jobs, len(pending)),
            mp_context=mp_context,
            initializer=_init_worker,
            initargs=(scenario, evaluator, times, worker_context, collect_metrics),
        )

    attempts = dict.fromkeys(pending, 0)
    errors: dict[int, str] = {}
    remaining = list(pending)
    executor = make_executor()
    try:
        for round_number in range(MAX_ATTEMPTS):
            if not remaining:
                break
            if round_number:
                obs.incr("parallel.worker_retries", len(remaining))
                time.sleep(BACKOFF_BASE_S * 2 ** (round_number - 1))
            future_index = {
                executor.submit(_eval_snapshot, index, pending[index]): index
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
                    timeout=SNAPSHOT_TIMEOUT_S,
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
                            f"timed out after {SNAPSHOT_TIMEOUT_S:g}s "
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

    # Last resort: what the pool could not finish runs in-process, where
    # spans land on the parent registry and the modes share the parent
    # engine's geometry frame.
    still_failing: list[int] = []
    for index in remaining:
        attempts[index] += 1
        obs.incr("parallel.serial_fallbacks")
        try:
            mode_rows = _eval_cells(
                scenario, evaluator, float(times[index]), pending[index]
            )
        except Exception as exc:
            errors[index] = (
                f"pool: {errors[index]}; "
                f"serial fallback: {exc.__class__.__name__}: {exc}"
            )
            still_failing.append(index)
        else:
            record(index, mode_rows)

    if still_failing:
        raise SweepError(
            [
                SnapshotFailure(
                    index=index,
                    time_s=float(times[index]),
                    attempts=attempts[index],
                    error=errors[index],
                )
                for index in sorted(still_failing)
            ]
        )
