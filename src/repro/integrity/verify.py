"""Offline artifact audit: ``repro verify <dir>``.

Resume-time verification only inspects the checkpoint directory a sweep
is about to reuse. This module audits an *entire* artifact tree after
the fact — before archived results feed a plot, or in CI after a smoke
sweep — and reports every violation it can find without recomputing
anything. It holds no rules of its own; each artifact family is judged
by the code that owns it:

* **checkpoint directories** (anything holding a ``manifest.json``):
  :func:`repro.core.checkpoint.audit_checkpoint_dir`, the same shard
  checks resume applies, read-only — a shard ``repro verify`` flags is
  exactly one resume would quarantine and recompute;
* **JSON artifacts** (results and metrics): validated against their
  ``kind``'s schema from :mod:`repro.obs.schema` — the one rule set
  :func:`repro.persistence.load_experiment_result` applies too, so
  ``repro verify`` and ``repro report`` reject the same files. An
  untagged payload, or one that is not a JSON object, is judged as a
  result (:func:`repro.obs.schema.artifact_kind`); an unknown ``kind``
  is not the audit's to judge.

Quarantine subdirectories are skipped — their contents are *known* bad;
re-flagging them would turn every healed sweep into a failing audit.

The audit is read-only and returns structured :class:`Violation`
records; the CLI exits non-zero when any are found.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.integrity.quarantine import QUARANTINE_DIRNAME
from repro.obs.schema import (
    METRICS_SCHEMA,
    RESULT_SCHEMA,
    SchemaError,
    artifact_kind,
    validate,
)

__all__ = [
    "Violation",
    "VerifyReport",
    "verify_checkpoint_dir",
    "verify_tree",
]

_MANIFEST_NAME = "manifest.json"

#: JSON ``kind`` tag -> validation schema.
_KIND_SCHEMAS = {
    "result": RESULT_SCHEMA,
    "metrics": METRICS_SCHEMA,
}


@dataclass(frozen=True)
class Violation:
    """One integrity violation found by the audit."""

    path: Path
    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.path}: [{self.code}] {self.detail}"


@dataclass
class VerifyReport:
    """Outcome of one tree audit: what was checked, what failed."""

    root: Path
    violations: list[Violation]
    checked: dict[str, int]

    @property
    def ok(self) -> bool:
        return not self.violations

    def format(self) -> str:
        """Human-readable audit report (one line per violation)."""
        counts = ", ".join(
            f"{count} {name}" for name, count in sorted(self.checked.items())
        )
        lines = [f"verify {self.root}: checked {counts or 'nothing'}"]
        for violation in self.violations:
            lines.append(f"  FAIL {violation}")
        lines.append(
            "verification PASSED"
            if self.ok
            else f"verification FAILED: {len(self.violations)} violation(s)"
        )
        return "\n".join(lines)


def verify_checkpoint_dir(directory: str | Path) -> list[Violation]:
    """Audit one checkpoint directory with the checks resume applies."""
    # Lazy: repro.core imports repro.integrity, which imports this module.
    from repro.core.checkpoint import audit_checkpoint_dir

    return [
        Violation(path, code, detail)
        for path, code, detail in audit_checkpoint_dir(directory)
    ]


def _verify_json(path: Path) -> list[Violation]:
    """Audit one standalone JSON artifact by its ``kind`` tag."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [Violation(path, "json-unreadable", str(exc))]
    kind = artifact_kind(payload)
    schema = _KIND_SCHEMAS.get(kind)
    if schema is None:
        return []  # unknown kind: not ours to judge
    try:
        validate(payload, schema)
    except SchemaError as exc:
        return [Violation(path, f"bad-{kind}", str(exc))]
    return []


def verify_tree(root: str | Path) -> VerifyReport:
    """Audit every artifact under ``root``; never raises on bad content."""
    root = Path(root)
    violations: list[Violation] = []
    checked: dict[str, int] = {}

    def bump(name: str) -> None:
        checked[name] = checked.get(name, 0) + 1

    if not root.is_dir():
        return VerifyReport(
            root=root,
            violations=[Violation(root, "not-a-directory", "nothing to verify")],
            checked=checked,
        )
    checkpoint_dirs = set()
    for manifest in sorted(root.rglob(_MANIFEST_NAME)):
        directory = manifest.parent
        if QUARANTINE_DIRNAME in directory.parts:
            continue
        checkpoint_dirs.add(directory)
        bump("checkpoints")
        violations.extend(verify_checkpoint_dir(directory))
    for path in sorted(root.rglob("*")):
        if not path.is_file() or QUARANTINE_DIRNAME in path.parts:
            continue
        if path.parent in checkpoint_dirs:
            continue  # shards/manifests already audited above
        if path.suffix == ".json":
            bump("json artifacts")
            violations.extend(_verify_json(path))
    return VerifyReport(root=root, violations=violations, checked=checked)
