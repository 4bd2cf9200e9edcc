"""Checkpoint/resume for long RTT sweeps, with content-integrity checks.

Full-scale runs (96 snapshots x 2 modes over a ~65k-node graph) take
hours; a crash, OOM kill, or Ctrl-C must not lose completed work. This
module checkpoints per-snapshot RTT rows to disk as they finish:

* each snapshot becomes one atomic ``.npz`` shard (written to a temp
  file in the target directory, ``os.replace``-d into place, and the
  parent directory fsync'd so a crash can neither truncate nor unlink a
  committed shard);
* a ``manifest.json`` pins the sweep's shape (mode, snapshot times,
  pair count) so a resume against the wrong configuration fails loudly
  instead of silently mixing incompatible rows — and records a SHA-256
  content digest for every committed shard.

Resume *verifies* rather than trusts: :meth:`RttCheckpoint.completed_indices`
recomputes each shard's digest and validates its payload against the
manifest; a truncated, bit-flipped, misindexed, malformed, NaN-holding
or unrecorded shard is moved to a ``quarantine/`` subdirectory with a
structured reason record (see :mod:`repro.integrity.quarantine`) and the
snapshot is scheduled for recompute — the sweep self-heals instead of
crashing or, worse, producing poisoned figures. This module is the only
place that defines a valid shard: :func:`audit_checkpoint_dir` runs the
same checks read-only for ``repro verify``.

Every sweep runs through :func:`repro.core.parallel.map_snapshot_rows`,
which checkpoints only under the run context's *checkpoint root*
(:func:`checkpoint_root`, the ``checkpoint_root`` and ``fresh`` fields of
the run context in :mod:`repro.context`): an orchestrator — ``repro run
--resume DIR`` — turns checkpointing on for every sweep executed inside
it without threading a parameter through each experiment. Checkpoint
directories are derived from a scenario fingerprint
(:func:`checkpoint_for`), so distinct configurations never collide under
one root; the map verifies each once and evaluates only the snapshots it
lacks. The checkpoint is also the archive: rerunning a sweep under the
same root loads every shard and evaluates nothing. ``repro run --resume
DIR --fresh`` quarantines a mismatched checkpoint directory and restarts
it instead of raising.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.context import current, run_context
from repro.integrity.digest import digest_bytes, digest_file
from repro.integrity.quarantine import note, quarantine_file
from repro.network.graph import ConnectivityMode
from repro.obs import span

if TYPE_CHECKING:  # circular at runtime: scenario imports the core package
    from repro.core.scenario import Scenario

__all__ = [
    "CheckpointMismatchError",
    "MANIFEST_VERSION",
    "RttCheckpoint",
    "atomic_write_bytes",
    "audit_checkpoint_dir",
    "checkpoint_for",
    "checkpoint_root",
    "scenario_fingerprint",
]

_MANIFEST_NAME = "manifest.json"
_SHARD_PATTERN = re.compile(r"^snap_(\d{5})\.npz$")

#: Manifest schema version: 2 added per-shard content digests.
MANIFEST_VERSION = 2


class CheckpointMismatchError(ValueError):
    """A checkpoint directory belongs to a different sweep configuration."""


def _fsync_directory(directory: Path) -> None:
    """Flush a directory's entries so a committed rename survives a crash.

    ``os.replace`` makes the rename atomic, but on POSIX the *directory
    entry* itself lives in the parent and is not durable until the
    parent is fsync'd — without this, power loss right after a "committed"
    shard/manifest rename can silently roll it back.
    """
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # platform without directory fds (or exotic fs): best effort
    try:
        os.fsync(dir_fd)
    except OSError:
        pass  # e.g. EINVAL on filesystems that don't support directory fsync
    finally:
        os.close(dir_fd)


#: Per-process sequence numbers for temp-file names (see :func:`_create_temp`).
_TEMP_SEQUENCE = itertools.count()


def _create_temp(path: Path) -> tuple[int, Path]:
    """Create a fresh temp file beside ``path``; return ``(fd, temp path)``.

    Mode 0o666 lets the process umask decide the final permissions,
    exactly as for any file ``open`` creates (``tempfile.mkstemp`` would
    force 0o600, leaving every committed artifact owner-only). The name
    is unique per process and write; ``O_EXCL`` refuses one a crashed
    process with a recycled pid left behind, and the next name is tried.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
    while True:
        sequence = next(_TEMP_SEQUENCE)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.{sequence}.tmp")
        try:
            return os.open(tmp, flags, 0o666), tmp
        except FileExistsError:
            continue


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically (temp file + ``os.replace``).

    The temp file lives in the destination directory so the final rename
    never crosses filesystems; readers see either the old content or the
    new, never a truncated mix. After the rename the parent directory is
    fsync'd, so a crash cannot roll back a committed write. The file's
    permissions follow the process umask, like any newly created file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = _create_temp(path)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    _fsync_directory(path.parent)
    return path


def scenario_fingerprint(
    scenario: "Scenario", mode: ConnectivityMode, label: str = ""
) -> str:
    """Stable short hash identifying (scenario configuration, mode, label).

    Built from the scenario's frozen-dataclass repr (constellation,
    scale, traffic seed, ablation knobs...) plus the connectivity mode
    and the run context's fault spec — the spec its graphs are built
    under — so checkpoints from different configurations land in
    different directories under one root. A spec that removes nothing
    builds the clean graphs and so keys like no spec at all.

    ``label`` distinguishes different *sweeps* over the same scenario —
    the RTT series (empty label) versus e.g. fig4's ``fig4-k1_4``
    throughput matrix, whose rows mean something entirely different. A
    non-empty label folds into the hash, so two sweeps can never resume
    from each other's shards.
    """
    spec = current().faults
    faults = "" if spec is None or spec.is_noop else spec.describe()
    key = f"{scenario!r}|{mode.value}|{faults}"
    if label:
        key += f"|{label}"
    return hashlib.sha1(key.encode()).hexdigest()[:16]


def _config_fingerprint(config: dict) -> str:
    """Short stable hash of a manifest's sweep configuration."""
    canonical = json.dumps(
        {k: config.get(k) for k in ("version", "mode", "num_pairs", "times_s")},
        sort_keys=True,
    )
    return hashlib.sha1(canonical.encode()).hexdigest()[:12]


@dataclass
class RttCheckpoint:
    """Per-snapshot row shards plus a validating manifest, in one directory.

    Despite the name (and the shards' historical ``rtt_ms`` array key),
    the stored rows are generic float vectors of length ``num_pairs``:
    the generic snapshot map checkpoints throughput series and other
    per-snapshot rows through the same shard format, distinguished by
    the directory's label/fingerprint (see :func:`checkpoint_for`).
    """

    directory: Path
    mode: ConnectivityMode
    times_s: np.ndarray
    num_pairs: int

    @classmethod
    def open(
        cls,
        directory: str | Path,
        mode: ConnectivityMode,
        times_s: np.ndarray,
        num_pairs: int,
        fresh: bool = False,
    ) -> "RttCheckpoint":
        """Open (creating if needed) a checkpoint directory for one sweep.

        Raises :class:`CheckpointMismatchError` when the directory's
        manifest records a different mode, pair count, or snapshot grid;
        the message carries both configuration fingerprints and the
        offending manifest path. With ``fresh=True`` a mismatched (or
        unreadable) checkpoint is quarantined and restarted instead.
        """
        directory = Path(directory)
        times_s = np.asarray(times_s, dtype=float)
        checkpoint = cls(
            directory=directory, mode=mode, times_s=times_s, num_pairs=int(num_pairs)
        )
        manifest_path = directory / _MANIFEST_NAME
        expected = checkpoint._expected_config()
        if manifest_path.exists():
            try:
                checkpoint._check_manifest(manifest_path, expected)
            except CheckpointMismatchError:
                if not fresh:
                    raise
                quarantine_file(
                    directory,
                    "stale checkpoint replaced by --fresh",
                    expected_fingerprint=_config_fingerprint(expected),
                )
                note("stale_checkpoints")
                checkpoint._write_manifest(expected)
        else:
            checkpoint._write_manifest(expected)
        return checkpoint

    def _expected_config(self) -> dict:
        return {
            "version": MANIFEST_VERSION,
            "mode": self.mode.value,
            "num_pairs": int(self.num_pairs),
            "times_s": [float(t) for t in self.times_s],
        }

    def _check_manifest(self, manifest_path: Path, expected: dict) -> dict:
        """Validate the on-disk manifest against this sweep; return it."""
        try:
            found = json.loads(manifest_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointMismatchError(
                f"unreadable checkpoint manifest {manifest_path}: {exc}"
            ) from exc
        mismatched = [
            key for key, value in expected.items() if found.get(key) != value
        ]
        if mismatched:
            details = "; ".join(
                f"{key}={found.get(key)!r}, expected {expected[key]!r}"
                for key in mismatched
            )
            raise CheckpointMismatchError(
                f"checkpoint manifest {manifest_path} was written for a "
                f"different sweep (its fingerprint {_config_fingerprint(found)} "
                f"!= expected {_config_fingerprint(expected)}): {details}. "
                "Use a different --resume directory, or pass --fresh to "
                "quarantine this checkpoint and restart it."
            )
        return found

    def _read_manifest(self) -> dict:
        """The manifest as currently on disk (``{}`` when absent/unreadable)."""
        try:
            payload = json.loads((self.directory / _MANIFEST_NAME).read_text())
        except (OSError, json.JSONDecodeError):
            return {}
        return payload if isinstance(payload, dict) else {}

    def _write_manifest(self, config: dict) -> None:
        atomic_write_bytes(
            self.directory / _MANIFEST_NAME, json.dumps(config, indent=1).encode()
        )

    @property
    def num_snapshots(self) -> int:
        return len(self.times_s)

    def shard_path(self, index: int) -> Path:
        """Path of the ``.npz`` shard holding snapshot ``index``."""
        if not 0 <= index < self.num_snapshots:
            raise IndexError(f"snapshot index {index} out of range")
        return self.directory / f"snap_{index:05d}.npz"

    def recorded_digests(self) -> dict[str, str]:
        """Shard-name -> digest map from the manifest (empty when absent)."""
        digests = self._read_manifest().get("digests", {})
        return dict(digests) if isinstance(digests, dict) else {}

    def completed_indices(self) -> set[int]:
        """Snapshot indices whose shard on disk passes verification.

        Every candidate shard must carry the digest the manifest
        recorded for it and hold a valid payload for its index (see
        :meth:`_shard_problem`). Shards failing any check — truncated,
        bit-flipped, unrecorded (a manifest update that never landed),
        misindexed, malformed, or out of range — are quarantined with a
        structured reason and *excluded*, so the caller recomputes them.
        """
        completed: set[int] = set()
        if not self.directory.is_dir():
            return completed
        digests = self.recorded_digests()
        pruned = dict(digests)
        for path, index, problem in self._scan(digests):
            if problem is None:
                completed.add(index)
                note("shards_verified")
            else:
                quarantine_file(path, problem[1], index=index)
                pruned.pop(path.name, None)
        # Drop digest entries whose shard is gone (quarantined above, or
        # lost): recompute overwrites them, and a pruned manifest keeps
        # `repro verify` and resume in agreement.
        live = {
            name: digest
            for name, digest in pruned.items()
            if (self.directory / name).exists()
        }
        if live != digests:
            config = self._read_manifest() or self._expected_config()
            config["digests"] = live
            try:
                self._write_manifest(config)
            except OSError:
                note("store_errors")
        return completed

    def _scan(self, digests: dict[str, str]):
        """Yield ``(path, index, problem)`` for every shard-named file."""
        for entry in sorted(os.listdir(self.directory)):
            match = _SHARD_PATTERN.match(entry)
            if match:
                index = int(match.group(1))
                path = self.directory / entry
                yield path, index, self._shard_problem(path, index, digests)

    def _shard_problem(
        self, path: Path, index: int, digests: dict[str, str]
    ) -> tuple[str, str] | None:
        """``(code, reason)`` why a shard is unusable, or ``None`` if valid.

        The one definition of a valid shard: resume quarantines what
        this rejects, and ``repro verify`` reports it. Row entries may
        be any float but NaN ("no value" is ``inf``); a negative RTT is
        caught on the assembled series by
        :func:`repro.integrity.check_rtt_series`, since generic rows may
        be signed.
        """
        if index >= self.num_snapshots:
            return "index-out-of-range", (
                f"shard index {index} out of range for a "
                f"{self.num_snapshots}-snapshot sweep"
            )
        recorded = digests.get(path.name)
        if recorded is None:
            return "shard-unrecorded", (
                "shard has no digest in the manifest (stale manifest or "
                "interrupted commit)"
            )
        try:
            actual = digest_file(path)
        except OSError as exc:
            return "shard-unreadable", f"shard unreadable: {exc}"
        if actual != recorded:
            return "digest-mismatch", (
                f"digest mismatch: manifest={recorded}, disk={actual}"
            )
        try:
            with np.load(path, allow_pickle=False) as data:
                row = np.asarray(data["rtt_ms"])
                time_s = np.asarray(data["time_s"])
        except Exception as exc:  # missing array, or zipfile/zlib/npy damage
            return "shard-malformed", f"malformed shard payload: {exc}"
        if row.dtype.kind != "f" or row.shape != (self.num_pairs,):
            return "shard-malformed", (
                f"malformed shard payload: rtt_ms has dtype {row.dtype} and "
                f"shape {row.shape}, expected float ({self.num_pairs},)"
            )
        if time_s.shape != () or time_s.dtype.kind not in "fiu":
            return "shard-malformed", (
                f"malformed shard payload: time_s has dtype {time_s.dtype} "
                f"and shape {time_s.shape}, expected a number"
            )
        if np.isnan(row).any():
            return "invalid-rtt", "NaN row entry (no value must be inf)"
        expected_time = float(self.times_s[index])
        if not np.isclose(float(time_s), expected_time, rtol=0.0, atol=1e-6):
            return "index-disagreement", (
                f"shard records t={float(time_s):g}s but manifest index "
                f"{index} is t={expected_time:g}s (manifest/shard disagreement)"
            )
        return None

    def store_snapshot(self, index: int, rtts_ms: np.ndarray) -> Path:
        """Atomically persist one snapshot's RTT row (shape ``(num_pairs,)``).

        The shard is committed first, then its content digest is recorded
        in the manifest; a crash between the two leaves an *unrecorded*
        shard, which resume quarantines and recomputes — never trusts.
        A row that :meth:`_shard_problem` would reject (NaN entries)
        raises ``ValueError`` before anything is written.
        """
        rtts_ms = np.asarray(rtts_ms, dtype=float)
        if rtts_ms.shape != (self.num_pairs,):
            raise ValueError(
                f"snapshot row has shape {rtts_ms.shape}, "
                f"expected ({self.num_pairs},)"
            )
        if np.isnan(rtts_ms).any():
            raise ValueError(
                f"snapshot {index} row holds NaN (no value must be inf)"
            )
        with span("checkpoint_io.store"):
            buffer = io.BytesIO()
            np.savez_compressed(
                buffer, rtt_ms=rtts_ms, time_s=np.float64(self.times_s[index])
            )
            data = buffer.getvalue()
            path = atomic_write_bytes(self.shard_path(index), data)
            config = self._read_manifest() or self._expected_config()
            digests = config.get("digests")
            if not isinstance(digests, dict):
                digests = {}
            digests[path.name] = digest_bytes(data)
            config["digests"] = digests
            self._write_manifest(config)
            return path

    def load_snapshot(self, index: int) -> np.ndarray:
        """Load one checkpointed snapshot row."""
        with span("checkpoint_io.load"):
            with np.load(self.shard_path(index), allow_pickle=False) as data:
                row = np.asarray(data["rtt_ms"], dtype=float)
        if row.shape != (self.num_pairs,):
            raise CheckpointMismatchError(
                f"shard {self.shard_path(index)} holds {row.shape[0]} pairs, "
                f"expected {self.num_pairs}"
            )
        return row


def audit_checkpoint_dir(directory: str | Path) -> list[tuple[Path, str, str]]:
    """``(path, code, detail)`` for every problem in one checkpoint directory.

    Read-only: the sweep configuration comes from the directory's own
    manifest and every shard gets exactly the checks resume applies
    (:meth:`RttCheckpoint._shard_problem`), but nothing is quarantined
    or rewritten. On top of those shard codes it reports
    ``manifest-unreadable``, ``manifest-malformed`` (fields that cannot
    describe a sweep) and ``shard-missing`` (a recorded digest whose
    shard is gone).
    """
    directory = Path(directory)
    manifest_path = directory / _MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [(manifest_path, "manifest-unreadable", str(exc))]
    try:
        times_s = np.asarray(manifest["times_s"], dtype=float)
        if times_s.ndim != 1:
            raise ValueError(f"times_s has shape {times_s.shape}, expected a list")
        checkpoint = RttCheckpoint(
            directory=directory,
            mode=ConnectivityMode(manifest["mode"]),
            times_s=times_s,
            num_pairs=int(manifest["num_pairs"]),
        )
        digests = manifest.get("digests", {})
        if not isinstance(digests, dict):
            raise TypeError("digests entry is not an object")
    except (KeyError, TypeError, ValueError) as exc:
        detail = f"{type(exc).__name__}: {exc}"
        return [(manifest_path, "manifest-malformed", detail)]
    problems = [
        (path, *problem)
        for path, _, problem in checkpoint._scan(digests)
        if problem is not None
    ]
    problems += [
        (
            directory / name,
            "shard-missing",
            "manifest records a digest but the shard is gone",
        )
        for name in digests
        if not (directory / name).exists()
    ]
    return problems


# --- Ambient checkpoint root -------------------------------------------------
#
# ``repro run --resume DIR`` wants every sweep in the batch to
# checkpoint under DIR without rewriting each experiment to accept a
# checkpoint argument. A run-context root plus per-scenario
# fingerprinted subdirectories gives exactly that; it is the only way
# a sweep checkpoints.


@contextmanager
def checkpoint_root(root: str | Path | None, fresh: bool = False):
    """Context manager: every snapshot sweep inside checkpoints under ``root``.

    ``fresh`` makes sweeps inside quarantine-and-restart mismatched
    checkpoint directories instead of raising (``repro run --fresh``).
    """
    root = None if root is None else Path(root)
    with run_context(checkpoint_root=root, fresh=bool(fresh) and root is not None):
        yield root


#: Characters allowed verbatim in a checkpoint directory name's label part.
_LABEL_SANITIZER = re.compile(r"[^A-Za-z0-9._-]")


def checkpoint_for(
    root: str | Path,
    scenario: "Scenario",
    mode: ConnectivityMode,
    fresh: bool = False,
    *,
    label: str,
    times_s: np.ndarray,
    row_len: int,
) -> RttCheckpoint:
    """The checkpoint for one (scenario, mode, label) sweep under ``root``.

    The label lands both in the directory name (human-readable,
    sanitized) and in the fingerprint (collision-proof even for hostile
    labels); ``times_s`` and ``row_len`` pin the manifest's snapshot
    grid and row shape. The RTT sweep's empty label keeps the historical
    ``<mode>-<fingerprint>`` name, so existing RTT checkpoints keep
    resuming.
    """
    fingerprint = scenario_fingerprint(scenario, mode, label=label)
    name = f"{mode.value}-{fingerprint}"
    if label:
        name = f"{_LABEL_SANITIZER.sub('_', label)}-{name}"
    return RttCheckpoint.open(
        Path(root) / name,
        mode=mode,
        times_s=times_s,
        num_pairs=row_len,
        fresh=fresh,
    )
