"""Fault-tolerant experiment orchestration for batch runs.

``repro run all`` at full scale is a multi-hour sweep; one experiment
raising must not forfeit the rest of the batch. The runner executes a
list of experiments with per-experiment ``try/except`` isolation and
wall-clock timing, collects structured :class:`ExperimentFailure`
records, and renders an end-of-run summary; the batch exits non-zero
when anything failed, but (by default) only after everything else has
had its turn. ``keep_going=False`` restores abort-on-first-failure.

One run context (:mod:`repro.context`) wraps the whole batch:

* ``resume_dir`` sets its checkpoint root
  (:mod:`repro.core.checkpoint`), so every RTT sweep inside the batch
  checkpoints per-snapshot results and resumes from whatever a previous
  interrupted run left on disk;
* ``fault_spec`` sets its fault spec (:mod:`repro.faults`), so every
  scenario in the batch degrades under the same seeded component
  outages — turning any experiment into an outage-robustness probe;
* ``strict`` turns on its result invariant guards.

``profile=True`` additionally runs every experiment under an
observability registry (:mod:`repro.obs`): per-experiment wall/CPU time
plus the span tree and counters collected by the instrumented hot
layers. The aggregate lands in ``RunSummary.metrics_by_experiment``, is
rendered as tables after the batch, and — when ``out_dir`` is set — is
written as a schema-versioned ``metrics.json`` next to the results.
"""

from __future__ import annotations

import json
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

if TYPE_CHECKING:  # runtime import would cycle through repro.core
    from repro.experiments.base import ExperimentResult

__all__ = [
    "ExperimentFailure",
    "ExperimentOutcome",
    "RunSummary",
    "UnknownExperimentError",
    "run_experiments",
]


class UnknownExperimentError(ValueError):
    """A requested experiment id is not in the registry."""

    def __init__(self, unknown: list[str], known: list[str]):
        self.unknown = list(unknown)
        self.known = list(known)
        super().__init__(
            f"unknown experiments: {', '.join(self.unknown)}; "
            f"known: {', '.join(self.known)}"
        )


@dataclass(frozen=True)
class ExperimentFailure:
    """Structured record of one experiment that raised."""

    experiment_id: str
    error_type: str
    message: str
    traceback: str

    def brief(self) -> str:
        """One-line ``id: ErrorType: message`` form for summaries."""
        return f"{self.experiment_id}: {self.error_type}: {self.message}"


@dataclass(frozen=True)
class ExperimentOutcome:
    """One experiment's run: either a result or a failure, always timed."""

    experiment_id: str
    duration_s: float
    result: ExperimentResult | None = None
    failure: ExperimentFailure | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None


#: Counters that must appear in every profile payload even at zero, so
#: metrics consumers get a stable key set (a clean sweep reports 0
#: retries rather than omitting the key).
_BASELINE_COUNTERS = (
    "checkpoint.hits",
    "checkpoint.misses",
    "parallel.worker_retries",
    "parallel.pool_recreations",
    "engine.static_hits",
    "engine.static_misses",
    "engine.frame_hits",
    "engine.frame_misses",
    "engine.cand_edges",
    "engine.frame_bytes",
    "engine.contraction_hits",
    "engine.contraction_misses",
    "engine.bounce_candidates",
    "engine.edge_tables",
    "routing.pair_retries",
    "integrity.quarantined",
    "integrity.shards_verified",
    "integrity.store_errors",
)


@dataclass
class RunSummary:
    """Everything that happened in one batch run."""

    outcomes: list[ExperimentOutcome] = field(default_factory=list)
    wall_clock_s: float = 0.0
    #: Per-experiment observability payloads (populated by ``profile=True``).
    metrics_by_experiment: dict[str, dict] = field(default_factory=dict)
    #: Integrity counter deltas accumulated over the batch (quarantined
    #: shards, verified shards, suppressed store errors, ...).
    integrity: dict[str, int] = field(default_factory=dict)

    @property
    def succeeded(self) -> list[ExperimentOutcome]:
        return [o for o in self.outcomes if o.ok]

    @property
    def failures(self) -> list[ExperimentFailure]:
        return [o.failure for o in self.outcomes if o.failure is not None]

    @property
    def exit_code(self) -> int:
        """Process exit code: non-zero whenever anything failed."""
        return 0 if not self.failures else 1

    def format_summary(self) -> str:
        """End-of-run report: per-experiment status plus failure details."""
        lines = [
            f"Run summary: {len(self.succeeded)} ok, "
            f"{len(self.failures)} failed ({self.wall_clock_s:.1f}s wall clock)"
        ]
        for outcome in self.outcomes:
            status = "ok" if outcome.ok else "FAILED"
            detail = outcome.result.brief() if outcome.result is not None else ""
            lines.append(
                f"  {outcome.experiment_id:<24s} {status:<6s} "
                f"{outcome.duration_s:8.1f}s  {detail}".rstrip()
            )
        interesting = {
            name: count
            for name, count in sorted(self.integrity.items())
            if count and name != "shards_verified"
        }
        if interesting:
            detail = ", ".join(f"{n}={c}" for n, c in interesting.items())
            lines.append(f"Integrity: {detail} (corrupt shards were quarantined")
            lines[-1] += " and recomputed; see the checkpoint's quarantine/ dir)"
        if self.failures:
            lines.append("Failures:")
            for failure in self.failures:
                lines.append(f"  {failure.brief()}")
        return "\n".join(lines)


def run_experiments(
    ids: Iterable[str],
    *,
    experiments: Mapping[str, Callable[..., ExperimentResult]] | None = None,
    scale=None,
    keep_going: bool = True,
    out_dir: str | Path | None = None,
    resume_dir: str | Path | None = None,
    fault_spec=None,
    profile: bool = False,
    strict: bool = False,
    fresh: bool = False,
    echo: Callable[[str], None] = print,
) -> RunSummary:
    """Run a batch of experiments, surviving individual failures.

    ``ids`` are registry ids, or the single element ``"all"``. Results are
    echoed as they complete; with ``out_dir`` each experiment also writes
    its rendered table (``<id>.txt``) and machine-readable JSON
    (``<id>.json``). ``scale`` is handed to every experiment as its one
    argument; ``None`` runs each at its own default scale. ``keep_going``
    (default) isolates failures; ``False`` stops the batch at the first one.
    ``resume_dir`` and ``fault_spec`` set the run context's checkpoint root
    and fault spec for the whole batch. ``profile`` collects per-experiment
    spans/counters (see module docstring), echoes the profile tables, and —
    with ``out_dir`` — writes ``metrics.json``. ``strict`` turns on result
    invariant guards (:mod:`repro.integrity.guards`) for the batch;
    ``fresh`` makes mismatched checkpoint directories get quarantined and
    restarted instead of failing the experiment. Raises
    :class:`UnknownExperimentError` before running anything when an id is
    unknown.
    """
    from repro import obs
    from repro.context import run_context
    from repro.core.checkpoint import atomic_write_bytes
    from repro.integrity.quarantine import integrity_counters
    from repro.persistence import save_experiment_result

    if experiments is None:
        from repro.experiments import all_experiments

        experiments = all_experiments()
    ids = list(ids)
    selected = sorted(experiments) if ids == ["all"] else ids
    unknown = [eid for eid in selected if eid not in experiments]
    if unknown:
        raise UnknownExperimentError(unknown, sorted(experiments))

    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    summary = RunSummary()
    batch_started = time.perf_counter()
    integrity_before = integrity_counters()
    # Only the settings this batch asks for change; the rest stay as the
    # caller's context has them.
    changes: dict = {}
    if resume_dir is not None:
        changes.update(checkpoint_root=Path(resume_dir), fresh=fresh)
    if fault_spec is not None:
        changes["faults"] = fault_spec
    if strict:
        changes["strict"] = True
    with run_context(**changes):
        for eid in selected:
            started = time.perf_counter()
            cpu_started = time.process_time()
            registry = obs.MetricsRegistry() if profile else None

            def _profile_payload(ok: bool) -> dict:
                registry.ensure_counters(_BASELINE_COUNTERS)
                payload = registry.snapshot()
                payload["ok"] = ok
                payload["wall_s"] = time.perf_counter() - started
                payload["cpu_s"] = time.process_time() - cpu_started
                return payload

            try:
                func = experiments[eid]
                with obs.observe(registry) if registry is not None else nullcontext():
                    result = func() if scale is None else func(scale)
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                duration = time.perf_counter() - started
                if registry is not None:
                    summary.metrics_by_experiment[eid] = _profile_payload(ok=False)
                failure = ExperimentFailure(
                    experiment_id=eid,
                    error_type=type(exc).__name__,
                    message=str(exc),
                    traceback=traceback.format_exc(),
                )
                summary.outcomes.append(
                    ExperimentOutcome(
                        experiment_id=eid, duration_s=duration, failure=failure
                    )
                )
                echo(f"[{eid}: FAILED after {duration:.1f}s] {failure.brief()}\n")
                if not keep_going:
                    break
            else:
                duration = time.perf_counter() - started
                if registry is not None:
                    summary.metrics_by_experiment[eid] = _profile_payload(ok=True)
                summary.outcomes.append(
                    ExperimentOutcome(
                        experiment_id=eid, duration_s=duration, result=result
                    )
                )
                echo(result.render())
                echo(f"[{eid}: {duration:.1f}s]\n")
                if out_dir is not None:
                    (out_dir / f"{eid}.txt").write_text(result.render() + "\n")
                    save_experiment_result(result, out_dir / f"{eid}.json")
    summary.wall_clock_s = time.perf_counter() - batch_started
    integrity_after = integrity_counters()
    summary.integrity = {
        name: integrity_after[name] - integrity_before.get(name, 0)
        for name in integrity_after
        if integrity_after[name] != integrity_before.get(name, 0)
    }
    if profile:
        echo(obs.format_profile_report(summary.metrics_by_experiment))
        if out_dir is not None:
            payload = {
                "kind": "metrics",
                "schema_version": obs.METRICS_SCHEMA_VERSION,
                "experiments": summary.metrics_by_experiment,
            }
            atomic_write_bytes(
                out_dir / "metrics.json", json.dumps(payload, indent=1).encode()
            )
    return summary
