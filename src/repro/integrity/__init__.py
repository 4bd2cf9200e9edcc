"""Integrity subsystem: trust nothing that crossed a disk or a table.

Four layers, each usable on its own:

* :mod:`repro.integrity.digest` — content digests (``sha256:<hex>``)
  for checkpoint shards and artifacts;
* :mod:`repro.integrity.validators` — declarative load-time validation
  of external input tables (cities, airports, presets, fiber edges);
* :mod:`repro.integrity.guards` — post-compute invariant checks on RTT
  series, graphs, and allocations, gated behind *strict mode*;
* :mod:`repro.integrity.quarantine` — structured isolation of corrupt
  shards so resume self-heals instead of crashing;
* :mod:`repro.integrity.verify` — the offline tree audit behind
  ``repro verify <dir>``.
"""

from repro.integrity.digest import DIGEST_ALGORITHM, digest_bytes, digest_file
from repro.integrity.guards import (
    InvariantViolation,
    check_allocation,
    check_graph,
    check_routing,
    check_rtt_series,
    rtt_lower_bound_ms,
    set_strict,
    strict_checks,
    strict_enabled,
)
from repro.integrity.quarantine import (
    QUARANTINE_DIRNAME,
    integrity_counters,
    note,
    quarantine_file,
    quarantine_reasons,
    reset_integrity_counters,
)
from repro.integrity.validators import (
    Column,
    InputValidationError,
    LATITUDE,
    LONGITUDE,
    TableSpec,
    validate_latlon_arrays,
)
from repro.integrity.verify import (
    VerifyReport,
    Violation,
    verify_checkpoint_dir,
    verify_tree,
)

__all__ = [
    "Column",
    "DIGEST_ALGORITHM",
    "InputValidationError",
    "InvariantViolation",
    "LATITUDE",
    "LONGITUDE",
    "QUARANTINE_DIRNAME",
    "TableSpec",
    "VerifyReport",
    "Violation",
    "check_allocation",
    "check_graph",
    "check_routing",
    "check_rtt_series",
    "digest_bytes",
    "digest_file",
    "integrity_counters",
    "note",
    "quarantine_file",
    "quarantine_reasons",
    "reset_integrity_counters",
    "rtt_lower_bound_ms",
    "set_strict",
    "strict_checks",
    "strict_enabled",
    "validate_latlon_arrays",
    "verify_checkpoint_dir",
    "verify_tree",
]
