"""Persistence: save and reload experiment results.

An experiment result goes to JSON with numpy arrays converted to lists
(human-inspectable, diff-able); :func:`save_experiment_result` is its one
writer, :func:`load_experiment_result` its one reader (its second half,
:func:`result_from_payload`, serves callers that parsed the file), and
:data:`repro.obs.schema.RESULT_SCHEMA` its one validator, shared with
``repro verify``. A sweep's rows persist only as checkpoint shards under
the run context's checkpoint root (:mod:`repro.core.checkpoint`):
rerunning the sweep under the same root is how an archived series is
reloaded.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core.checkpoint import atomic_write_bytes
from repro.experiments.base import ExperimentResult
from repro.obs.schema import RESULT_SCHEMA, artifact_kind, validate

__all__ = [
    "save_experiment_result",
    "load_experiment_result",
    "result_from_payload",
]


def _jsonable(value):
    """Recursively convert numpy containers to JSON-serializable objects."""
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return _jsonable(value.item())
    if isinstance(value, dict):
        return {_key(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


def _key(key):
    """JSON object keys must be strings; tuples become pipe-joined."""
    if isinstance(key, tuple):
        return "|".join("" if k is None else str(k) for k in key)
    if key is None:
        return ""
    return str(key)


def save_experiment_result(result: ExperimentResult, path: str | Path) -> Path:
    """Write an experiment result to JSON (``.json`` appended if missing).

    The ``data`` payload is converted losslessly where JSON allows
    (non-finite floats become ``null``; tuple keys become pipe-joined
    strings) — enough for archiving and re-plotting, not for bit-exact
    round-trips. The write is atomic (temp file + ``os.replace``), so a
    crash mid-write never leaves a truncated ``.json``.
    """
    path = Path(path)
    if path.suffix != ".json":
        path = path.with_suffix(".json")
    payload = {
        "kind": "result",
        "experiment_id": result.experiment_id,
        "title": result.title,
        "scale_name": result.scale_name,
        "tables": result.tables,
        "headline": _jsonable(result.headline),
        "data": _jsonable(result.data),
    }
    return atomic_write_bytes(path, json.dumps(payload, indent=1).encode())


def load_experiment_result(path: str | Path) -> ExperimentResult:
    """Load a previously saved experiment result.

    Arrays come back as plain lists (JSON has no ndarray); callers that
    need arrays should wrap with ``np.asarray``. A payload of a different
    kind — e.g. the ``metrics.json`` that ``repro run --out DIR
    --profile`` writes beside the results — is rejected by its ``kind``
    tag (see :func:`~repro.obs.schema.artifact_kind`); anything else is
    judged by :data:`~repro.obs.schema.RESULT_SCHEMA`, exactly as
    ``repro verify`` judges it. Every failure, unparsable JSON included,
    is a ``ValueError`` naming the file.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except ValueError as exc:  # JSON and encoding errors alike
        raise ValueError(f"malformed experiment result {path}: {exc}") from exc
    return result_from_payload(payload, path)


def result_from_payload(payload, source: str | Path) -> ExperimentResult:
    """:func:`load_experiment_result` for an already parsed ``source``."""
    try:
        kind = artifact_kind(payload)
        if kind != "result":
            raise ValueError(f"holds a {kind!r} payload, not an experiment result")
        validate(payload, RESULT_SCHEMA)
    except ValueError as exc:
        raise ValueError(f"malformed experiment result {source}: {exc}") from exc
    return ExperimentResult(
        experiment_id=payload["experiment_id"],
        title=payload["title"],
        scale_name=payload["scale_name"],
        tables=list(payload["tables"]),
        headline=dict(payload["headline"]),
        data=dict(payload["data"]),
    )
