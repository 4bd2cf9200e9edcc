"""Offline artifact audit: ``repro verify <dir>``.

Resume-time verification only inspects the checkpoint directory a sweep
is about to reuse. This module audits an *entire* artifact tree after
the fact — before archived series feed a plot, or in CI after a smoke
sweep — and reports every violation it can find without recomputing
anything:

* **checkpoint directories** (anything holding a ``manifest.json``):
  the manifest must parse, every shard's bytes must match its recorded
  digest, every recorded digest must have its shard on disk, shard
  indices must be in range, and payloads must be structurally sound;
* **kind-tagged JSON artifacts** (results and metrics):
  validated against their schemas from :mod:`repro.obs.schema`;
* **``.npz`` RTT series**: must load, carry the expected arrays, and
  satisfy the cheap physical invariants (2-D, finite-or-inf,
  non-negative, snapshot count matching the time grid).

Quarantine subdirectories are skipped — their contents are *known* bad;
re-flagging them would turn every healed sweep into a failing audit.

The audit is read-only and returns structured :class:`Violation`
records; the CLI exits non-zero when any are found.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.integrity.digest import digest_file
from repro.integrity.quarantine import QUARANTINE_DIRNAME
from repro.network.graph import ConnectivityMode
from repro.obs.schema import (
    METRICS_SCHEMA,
    RESULT_SCHEMA,
    SchemaError,
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

_SERIES_KEYS = {"mode", "times_s", "rtt_ms"}


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
    """Audit one checkpoint directory (a ``manifest.json`` plus shards)."""
    directory = Path(directory)
    manifest_path = directory / _MANIFEST_NAME
    violations: list[Violation] = []
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [Violation(manifest_path, "manifest-unreadable", str(exc))]
    if not isinstance(manifest, dict):
        return [
            Violation(
                manifest_path,
                "manifest-malformed",
                f"expected a JSON object, got {type(manifest).__name__}",
            )
        ]
    times = manifest.get("times_s")
    num_snapshots = len(times) if isinstance(times, list) else None
    num_pairs = manifest.get("num_pairs")
    digests = manifest.get("digests")
    if not isinstance(digests, dict):
        if manifest.get("version", 0) >= 2 or digests is not None:
            violations.append(
                Violation(
                    manifest_path,
                    "manifest-malformed",
                    "digests entry missing or not an object",
                )
            )
        digests = {}
    shards = sorted(p for p in directory.glob("snap_*.npz"))
    for shard in shards:
        recorded = digests.get(shard.name)
        if recorded is None:
            violations.append(
                Violation(shard, "shard-unrecorded", "no digest in manifest")
            )
            continue
        try:
            actual = digest_file(shard)
        except OSError as exc:
            violations.append(Violation(shard, "shard-unreadable", str(exc)))
            continue
        if actual != recorded:
            violations.append(
                Violation(
                    shard,
                    "digest-mismatch",
                    f"manifest={recorded}, disk={actual}",
                )
            )
            continue
        violations.extend(
            _check_shard_payload(shard, num_pairs, num_snapshots, times)
        )
    for name in digests:
        if not (directory / name).exists():
            violations.append(
                Violation(
                    directory / name,
                    "shard-missing",
                    "manifest records a digest but the shard is gone",
                )
            )
    return violations


def _check_shard_payload(
    shard: Path, num_pairs, num_snapshots, times
) -> list[Violation]:
    """Structural checks on one digest-clean shard."""
    try:
        index = int(shard.stem.split("_")[1])
    except (IndexError, ValueError):
        return [Violation(shard, "shard-misnamed", "cannot parse snapshot index")]
    if num_snapshots is not None and index >= num_snapshots:
        return [
            Violation(
                shard,
                "index-out-of-range",
                f"index {index} in a {num_snapshots}-snapshot sweep",
            )
        ]
    try:
        with np.load(shard, allow_pickle=False) as data:
            if "rtt_ms" not in data or "time_s" not in data:
                return [
                    Violation(
                        shard, "shard-malformed", "missing rtt_ms/time_s arrays"
                    )
                ]
            row = np.asarray(data["rtt_ms"])
            time_s = float(data["time_s"])
    except (OSError, ValueError, KeyError) as exc:
        return [Violation(shard, "shard-malformed", str(exc))]
    violations = []
    if isinstance(num_pairs, int) and row.shape != (num_pairs,):
        violations.append(
            Violation(
                shard,
                "shard-malformed",
                f"rtt_ms shape {row.shape}, expected ({num_pairs},)",
            )
        )
    if (
        num_snapshots is not None
        and index < num_snapshots
        and not np.isclose(time_s, float(times[index]), rtol=0.0, atol=1e-6)
    ):
        violations.append(
            Violation(
                shard,
                "index-disagreement",
                f"shard records t={time_s:g}s, manifest index {index} "
                f"is t={float(times[index]):g}s",
            )
        )
    if row.dtype.kind == "f" and np.isnan(row).any():
        violations.append(
            Violation(shard, "invalid-rtt", "NaN RTT (unreachable must be inf)")
        )
    elif row.dtype.kind == "f" and (row < 0).any():
        violations.append(Violation(shard, "invalid-rtt", "negative RTT"))
    return violations


def _verify_json(path: Path) -> list[Violation]:
    """Audit one standalone JSON artifact by its ``kind`` tag."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [Violation(path, "json-unreadable", str(exc))]
    if not isinstance(payload, dict):
        return []  # not a kind-tagged artifact (e.g. a list) — out of scope
    kind = payload.get("kind")
    schema = _KIND_SCHEMAS.get(kind)
    if schema is None:
        return []  # unknown/absent kind: not ours to judge
    try:
        validate(payload, schema)
    except SchemaError as exc:
        return [Violation(path, f"bad-{kind}", str(exc))]
    return []


def _verify_series(path: Path) -> list[Violation]:
    """Audit one ``.npz`` RTT-series artifact."""
    try:
        with np.load(path, allow_pickle=False) as data:
            keys = set(data.files)
            if not _SERIES_KEYS <= keys:
                return []  # some other .npz — out of scope
            mode = str(data["mode"])
            times = np.asarray(data["times_s"], dtype=float)
            rtt = np.asarray(data["rtt_ms"], dtype=float)
    except (OSError, ValueError, KeyError) as exc:
        return [Violation(path, "series-unreadable", str(exc))]
    violations = []
    try:
        ConnectivityMode(mode)
    except ValueError:
        violations.append(
            Violation(path, "series-malformed", f"unknown mode {mode!r}")
        )
    if rtt.ndim != 2:
        violations.append(
            Violation(
                path, "series-malformed", f"rtt_ms must be 2-D, got {rtt.shape}"
            )
        )
    elif rtt.shape[1] != len(times):
        violations.append(
            Violation(
                path,
                "series-malformed",
                f"{rtt.shape[1]} snapshot columns vs {len(times)} times",
            )
        )
    if np.isnan(rtt).any():
        violations.append(
            Violation(path, "invalid-rtt", "NaN RTT (unreachable must be inf)")
        )
    elif (rtt < 0).any():
        violations.append(Violation(path, "invalid-rtt", "negative RTT"))
    return violations


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
        elif path.suffix == ".npz":
            bump("npz series")
            violations.extend(_verify_series(path))
    return VerifyReport(root=root, violations=violations, checked=checked)
