"""Observability: structured spans, counters, and artifact schemas.

The instrumentation subsystem behind ``repro run --profile``. See
:mod:`repro.obs.spans` for the collection API (near-zero overhead when
disabled), :mod:`repro.obs.schema` for the machine-readable artifact
shapes, and :mod:`repro.obs.profile` for the human rendering.
"""

from repro.obs.profile import format_experiment_profile, format_profile_report
from repro.obs.schema import (
    METRICS_SCHEMA,
    RESULT_SCHEMA,
    SchemaError,
    validate,
)
from repro.obs.spans import (
    METRICS_SCHEMA_VERSION,
    MetricsRegistry,
    SpanStats,
    incr,
    merge_payload,
    observe,
    span,
    traced,
)

__all__ = [
    "METRICS_SCHEMA",
    "METRICS_SCHEMA_VERSION",
    "MetricsRegistry",
    "RESULT_SCHEMA",
    "SchemaError",
    "SpanStats",
    "format_experiment_profile",
    "format_profile_report",
    "incr",
    "merge_payload",
    "observe",
    "span",
    "traced",
    "validate",
]
