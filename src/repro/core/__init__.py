"""Core comparison engine: scenarios, pipelines, metrics, comparisons."""

from repro.core.checkpoint import (
    CheckpointMismatchError,
    RttCheckpoint,
    checkpoint_for,
    checkpoint_root,
    scenario_fingerprint,
)
from repro.core.comparison import LatencyComparison, compare_latency
from repro.core.engine import (
    GeometryFrame,
    SnapshotEngine,
    StaticContext,
    assemble_graph,
)
from repro.core.metrics import (
    PairRttStats,
    distribution_summary,
    rtt_stats,
)
from repro.core.parallel import SnapshotFailure, SweepError, map_snapshot_rows
from repro.core.runner import (
    ExperimentFailure,
    ExperimentOutcome,
    RunSummary,
    UnknownExperimentError,
    run_experiments,
)
from repro.core.pipeline import RttSeries, compute_rtt_series_multi
from repro.core.scenario import Scenario, ScenarioScale

__all__ = [
    "Scenario",
    "ScenarioScale",
    "RttSeries",
    "compute_rtt_series_multi",
    "map_snapshot_rows",
    "SnapshotEngine",
    "StaticContext",
    "GeometryFrame",
    "assemble_graph",
    "RttCheckpoint",
    "CheckpointMismatchError",
    "checkpoint_for",
    "checkpoint_root",
    "scenario_fingerprint",
    "SnapshotFailure",
    "SweepError",
    "ExperimentFailure",
    "ExperimentOutcome",
    "RunSummary",
    "UnknownExperimentError",
    "run_experiments",
    "PairRttStats",
    "rtt_stats",
    "distribution_summary",
    "LatencyComparison",
    "compare_latency",
]
