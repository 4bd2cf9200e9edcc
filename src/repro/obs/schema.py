"""Explicit schemas for the machine-readable run artifacts.

Two JSON payload families leave the toolchain:

* **experiment results** (``repro run --out DIR`` → ``DIR/<id>.json``,
  written by :func:`repro.persistence.save_experiment_result`);
* **run metrics** (``repro run --out DIR --profile`` →
  ``DIR/metrics.json``, one span/counter aggregate per experiment).

The schemas here pin their shapes so downstream tooling — and the test
suite — can validate artifacts without guessing, and so a metrics file
can never masquerade as a result (they carry distinct ``kind`` tags).
:func:`validate` is a dependency-free subset of JSON Schema covering
exactly what these payloads need (``type``, ``enum``, ``required``,
``properties``, ``additionalProperties``, ``items``, ``minimum``).
"""

from __future__ import annotations

__all__ = [
    "METRICS_SCHEMA",
    "RESULT_SCHEMA",
    "SchemaError",
    "artifact_kind",
    "validate",
]


class SchemaError(ValueError):
    """A payload does not match its schema; the message names the path."""


#: Aggregate of one span path: execution count and timing extremes.
_SPAN_STATS_SCHEMA = {
    "type": "object",
    "required": ["count", "total_s", "min_s", "max_s"],
    "properties": {
        "count": {"type": "integer", "minimum": 0},
        "total_s": {"type": "number", "minimum": 0},
        "min_s": {"type": "number", "minimum": 0},
        "max_s": {"type": "number", "minimum": 0},
    },
}

#: Span tree + counters, as produced by ``MetricsRegistry.snapshot()``.
_SPANS_SCHEMA = {"type": "object", "additionalProperties": _SPAN_STATS_SCHEMA}
_COUNTERS_SCHEMA = {"type": "object", "additionalProperties": {"type": "number"}}

#: One experiment's entry inside ``metrics.json``.
_EXPERIMENT_METRICS_SCHEMA = {
    "type": "object",
    "required": ["wall_s", "cpu_s", "spans", "counters"],
    "properties": {
        "ok": {"type": "boolean"},
        "wall_s": {"type": "number", "minimum": 0},
        "cpu_s": {"type": "number", "minimum": 0},
        "schema_version": {"type": "integer", "minimum": 1},
        "spans": _SPANS_SCHEMA,
        "counters": _COUNTERS_SCHEMA,
    },
}

#: ``DIR/metrics.json`` — the whole-run observability payload.
METRICS_SCHEMA = {
    "type": "object",
    "required": ["kind", "schema_version", "experiments"],
    "properties": {
        "kind": {"enum": ["metrics"]},
        "schema_version": {"type": "integer", "minimum": 1},
        "experiments": {
            "type": "object",
            "additionalProperties": _EXPERIMENT_METRICS_SCHEMA,
        },
    },
}

#: ``DIR/<experiment>.json`` — a saved :class:`ExperimentResult`.
RESULT_SCHEMA = {
    "type": "object",
    "required": ["experiment_id", "title", "scale_name", "tables", "headline", "data"],
    "properties": {
        "kind": {"enum": ["result"]},
        "experiment_id": {"type": "string"},
        "title": {"type": "string"},
        "scale_name": {"type": "string"},
        "tables": {"type": "array", "items": {"type": "string"}},
        "headline": {"type": "object"},
        "data": {"type": "object"},
    },
}


def artifact_kind(payload) -> str:
    """The ``kind`` a parsed JSON artifact is judged as.

    An untagged payload predates the tag and counts as a result, as does
    anything that is not a JSON object: :data:`RESULT_SCHEMA` then
    rejects it.
    """
    return payload.get("kind", "result") if isinstance(payload, dict) else "result"


_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def validate(payload, schema: dict, path: str = "$") -> None:
    """Check ``payload`` against ``schema``; raise :class:`SchemaError`.

    Supports the JSON Schema subset the artifact schemas above use; the
    error message names the offending JSON path.
    """
    expected_type = schema.get("type")
    if expected_type is not None:
        check = _TYPE_CHECKS.get(expected_type)
        if check is None:
            raise SchemaError(f"{path}: unsupported schema type {expected_type!r}")
        if not check(payload):
            raise SchemaError(
                f"{path}: expected {expected_type}, got {type(payload).__name__}"
            )
    if "enum" in schema and payload not in schema["enum"]:
        raise SchemaError(f"{path}: {payload!r} not one of {schema['enum']!r}")
    if "minimum" in schema and isinstance(payload, (int, float)):
        if payload < schema["minimum"]:
            raise SchemaError(f"{path}: {payload!r} below minimum {schema['minimum']}")
    if isinstance(payload, dict):
        missing = [key for key in schema.get("required", ()) if key not in payload]
        if missing:
            also = ", ".join(repr(key) for key in missing[1:])
            raise SchemaError(
                f"{path}: missing required key {missing[0]!r}"
                + (f" (also {also})" if also else "")
            )
        properties = schema.get("properties", {})
        for key, value in payload.items():
            if key in properties:
                validate(value, properties[key], f"{path}.{key}")
            elif "additionalProperties" in schema:
                extra = schema["additionalProperties"]
                if extra is False:
                    raise SchemaError(f"{path}: unexpected key {key!r}")
                if isinstance(extra, dict):
                    validate(value, extra, f"{path}.{key}")
    if isinstance(payload, list) and "items" in schema:
        for index, item in enumerate(payload):
            validate(item, schema["items"], f"{path}[{index}]")
