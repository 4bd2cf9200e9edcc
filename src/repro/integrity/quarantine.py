"""Quarantine: structured isolation of corrupt artifacts.

When resume verification finds a shard whose digest disagrees with the
manifest — truncated by a torn write, bit-flipped, or simply stale — the
shard is *moved*, never deleted: it lands in a ``quarantine/`` subdirectory
next to a ``.reason.json`` sidecar recording what was wrong, when found
(by monotonically numbered slots), and the digests involved. The sweep
then recomputes the snapshot; an operator can inspect the quarantined
bytes afterwards.

The module also keeps process-wide integrity counters (quarantines,
verified shards, suppressed store errors) that the run summary surfaces
even when no observability registry is active.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from threading import Lock

from repro import obs

__all__ = [
    "QUARANTINE_DIRNAME",
    "integrity_counters",
    "note",
    "quarantine_file",
]

#: Subdirectory (inside a checkpoint/artifact directory) holding
#: quarantined files and their reason sidecars.
QUARANTINE_DIRNAME = "quarantine"

_lock = Lock()
_COUNTERS: dict[str, int] = {}


def note(name: str, value: int = 1) -> None:
    """Bump an integrity counter (and mirror it into the obs registry)."""
    with _lock:
        _COUNTERS[name] = _COUNTERS.get(name, 0) + value
    obs.incr(f"integrity.{name}", value)


def integrity_counters() -> dict[str, int]:
    """Snapshot of the process-wide integrity counters."""
    with _lock:
        return dict(_COUNTERS)


def quarantine_file(path: str | Path, reason: str, **details) -> Path | None:
    """Move ``path`` into its directory's quarantine, with a reason record.

    Returns the quarantined path, or ``None`` when the file had already
    vanished (a concurrent or repeated quarantine is not an error).
    ``details`` (JSON-serializable) are recorded alongside the reason —
    typically the recorded vs actual digests.
    """
    path = Path(path)
    qdir = path.parent / QUARANTINE_DIRNAME
    qdir.mkdir(parents=True, exist_ok=True)
    target = qdir / path.name
    slot = 0
    while target.exists():
        slot += 1
        target = qdir / f"{path.name}.{slot}"
    try:
        os.replace(path, target)
    except FileNotFoundError:
        return None
    record = {"file": path.name, "reason": reason, **details}
    # A failed sidecar write must not resurrect the corrupt shard: the
    # quarantine move already happened, so swallow sidecar I/O errors.
    try:
        target.with_name(target.name + ".reason.json").write_text(
            json.dumps(record, indent=1) + "\n"
        )
    except OSError:
        pass
    note("quarantined")
    return target
