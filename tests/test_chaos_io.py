"""Chaos tests: the sweep survives injected storage faults and self-heals.

Each test arms one :class:`IoFaultSpec` (torn write, bit flip, disk
full, stale manifest) with :func:`io_fault`, runs a checkpointed sweep
through the fault, then resumes with healthy storage and asserts the
healed series is byte-identical to a clean run — what the
self-healing resume path promises. ``repro verify`` is
exercised against the same trees: it must flag a deliberately corrupted
shard by name and exit non-zero.

The production write path has no fault hook. :func:`io_fault` swaps
``repro.core.checkpoint.atomic_write_bytes`` — the module global that
shard stores and manifest updates call — for :meth:`IoFaultSpec.write`
inside its block. Shards are stored by the sweep's parent process, so
the swap covers ``jobs=2`` sweeps too.
"""

import errno
from contextlib import contextmanager
from dataclasses import dataclass
from fnmatch import fnmatch
from pathlib import Path

import numpy as np
import pytest

import repro.core.checkpoint as checkpoint_module
from repro.context import run_context
from repro.core.checkpoint import RttCheckpoint, checkpoint_for, checkpoint_root
from repro.core.pipeline import compute_rtt_series_multi
from repro.integrity.quarantine import integrity_counters
from repro.network.graph import ConnectivityMode
from tests.conftest import quarantine_reasons

#: ``torn_write`` leaves truncated bytes at the destination (a crash on a
#: non-atomic filesystem); ``bit_flip`` writes the payload with one bit
#: flipped; ``disk_full`` raises ``OSError`` (ENOSPC); ``stale_manifest``
#: silently drops the write (an update that never landed).
IO_FAULT_KINDS = ("torn_write", "bit_flip", "disk_full", "stale_manifest")

_REAL_WRITE = checkpoint_module.atomic_write_bytes


def corrupt_bytes(kind: str, data: bytes) -> bytes:
    """The payload a ``torn_write`` (first half) or ``bit_flip`` leaves."""
    if kind == "torn_write":
        return data[: max(1, len(data) // 2)]
    middle = len(data) // 2
    return data[:middle] + bytes([data[middle] ^ 0x01]) + data[middle + 1 :]


@dataclass
class IoFaultSpec:
    """One storage fault: what fails, on which writes, and its counts.

    ``pattern`` is an ``fnmatch`` glob against the destination file name
    (``snap_*`` targets shards, ``manifest.json`` the manifest). The
    fault fires on the ``after``-th matching write (0 = first) and the
    ``shots - 1`` matching writes after it; every other write is real.
    """

    kind: str
    pattern: str = "*"
    after: int = 0
    shots: int = 1
    matches_seen: int = 0
    shots_fired: int = 0

    def __post_init__(self):
        if self.kind not in IO_FAULT_KINDS:
            raise ValueError(f"unknown I/O fault kind {self.kind!r}")

    def consume(self, path) -> str | None:
        """The fault kind for this write of ``path``, or ``None``."""
        if not fnmatch(Path(path).name, self.pattern):
            return None
        index = self.matches_seen
        self.matches_seen += 1
        if index < self.after or self.shots_fired >= self.shots:
            return None
        self.shots_fired += 1
        return self.kind

    def write(self, path, data: bytes) -> Path:
        """``atomic_write_bytes``, failing the way this spec says."""
        path = Path(path)
        kind = self.consume(path)
        if kind == "disk_full":
            raise OSError(errno.ENOSPC, f"injected disk-full fault writing {path.name}")
        if kind == "stale_manifest":
            return path
        if kind == "torn_write":
            path.write_bytes(corrupt_bytes(kind, data))
            return path
        if kind == "bit_flip":
            data = corrupt_bytes(kind, data)
        return _REAL_WRITE(path, data)


@contextmanager
def io_fault(spec: IoFaultSpec):
    """Route checkpoint writes through ``spec`` inside the block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(checkpoint_module, "atomic_write_bytes", spec.write)
        yield spec


MODE = ConnectivityMode.BP_ONLY


@pytest.fixture(scope="module")
def clean_series(tiny_scenario):
    """The ground truth: one un-faulted, un-checkpointed sweep."""
    return compute_rtt_series_multi(tiny_scenario, [MODE])[MODE]


def _open_checkpoint(tiny_scenario, root) -> RttCheckpoint:
    """The checkpoint the sweep of ``tiny_scenario`` uses under ``root``."""
    return checkpoint_for(
        root,
        tiny_scenario,
        MODE,
        label="",
        times_s=tiny_scenario.times_s,
        row_len=len(tiny_scenario.pairs),
    )


def _sweep(tiny_scenario, root, jobs=1):
    """One checkpointed sweep under ``root``; returns the series."""
    with checkpoint_root(root), run_context(jobs=jobs):
        return compute_rtt_series_multi(tiny_scenario, [MODE])[MODE]


class TestIoFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            IoFaultSpec(kind="gamma_ray")

    def test_consumed_once(self, tmp_path):
        spec = IoFaultSpec(kind="disk_full", pattern="x.bin")
        assert spec.consume(tmp_path / "x.bin") == "disk_full"
        assert spec.consume(tmp_path / "x.bin") is None

    def test_pattern_and_after(self, tmp_path):
        spec = IoFaultSpec(kind="bit_flip", pattern="snap_*.npz", after=1)
        assert spec.consume(tmp_path / "manifest.json") is None
        assert spec.consume(tmp_path / "snap_00000.npz") is None  # after=1
        assert spec.consume(tmp_path / "snap_00001.npz") == "bit_flip"

    def test_no_ambient_spec_is_silent(self, tmp_path):
        """Outside :func:`io_fault` checkpoint writes are the real ones."""
        with io_fault(IoFaultSpec(kind="disk_full")):
            with pytest.raises(OSError):
                checkpoint_module.atomic_write_bytes(tmp_path / "x.bin", b"x")
        assert checkpoint_module.atomic_write_bytes is _REAL_WRITE
        checkpoint_module.atomic_write_bytes(tmp_path / "x.bin", b"abc")
        assert (tmp_path / "x.bin").read_bytes() == b"abc"

    def test_corrupt_bytes_torn(self):
        assert corrupt_bytes("torn_write", b"abcdef") == b"abc"

    def test_corrupt_bytes_flip_changes_one_byte(self):
        data = b"abcdef"
        flipped = corrupt_bytes("bit_flip", data)
        assert len(flipped) == len(data)
        assert sum(a != b for a, b in zip(data, flipped)) == 1


def _sweep_through_fault(tiny_scenario, root, spec):
    """Run a checkpointed sweep with ``spec`` armed; return the series.

    The checkpoint is opened first, so its manifest exists before the
    fault is armed and the fault hits the sweep's own writes.
    """
    ck = _open_checkpoint(tiny_scenario, root)
    with io_fault(spec):
        series = _sweep(tiny_scenario, root)
    return series, ck


#: What resume says about the shard each fault kind damages (``None``:
#: the fault leaves nothing to quarantine).
HEAL_REASONS = {
    "torn_write": "digest mismatch",
    "bit_flip": "digest mismatch",
    "disk_full": None,
    "stale_manifest": "no digest in the manifest",
}


@pytest.mark.parametrize("kind", IO_FAULT_KINDS)
def test_sweep_survives_and_heals_byte_identically(
    kind, tiny_scenario, tmp_path, clean_series
):
    """The headline chaos property, for every fault kind.

    The faulted sweep must complete; a resume on healthy storage must
    quarantine whatever the fault damaged, recompute it, and converge to
    the clean run bit for bit.
    """
    pattern = "manifest.json" if kind == "stale_manifest" else "snap_*.npz"
    spec = IoFaultSpec(kind=kind, pattern=pattern)
    faulted, _ = _sweep_through_fault(tiny_scenario, tmp_path / "ck", spec)
    # The in-memory result of the faulted sweep is already correct:
    # storage faults must never bend the numbers.
    assert faulted.rtt_ms.tobytes() == clean_series.rtt_ms.tobytes()

    # Resume on healthy storage: verification quarantines the damage and
    # the recompute converges byte-identically.
    healed = _sweep(tiny_scenario, tmp_path / "ck")
    assert healed.rtt_ms.tobytes() == clean_series.rtt_ms.tobytes()
    ck = _open_checkpoint(tiny_scenario, tmp_path / "ck")
    assert ck.completed_indices() == set(range(ck.num_snapshots))
    # The damaged shard was caught by the check meant for it: a flipped
    # bit must fail the digest, not just happen to break the zip.
    reasons = [record["reason"] for record in quarantine_reasons(ck.directory)]
    if HEAL_REASONS[kind] is None:
        assert reasons == []
    else:
        (reason,) = reasons
        assert HEAL_REASONS[kind] in reason


def test_torn_write_is_quarantined_with_reason(
    tiny_scenario, tmp_path, clean_series
):
    spec = IoFaultSpec(kind="torn_write", pattern="snap_*.npz")
    _sweep_through_fault(tiny_scenario, tmp_path / "ck", spec)
    ck = _open_checkpoint(tiny_scenario, tmp_path / "ck")
    before = integrity_counters().get("quarantined", 0)
    completed = ck.completed_indices()
    assert completed == {1, 2}  # the torn first shard is gone
    assert integrity_counters().get("quarantined", 0) == before + 1
    (record,) = quarantine_reasons(ck.directory)
    assert record["file"] == "snap_00000.npz"
    assert "digest mismatch" in record["reason"]


def test_stale_manifest_leaves_unrecorded_shard(
    tiny_scenario, tmp_path, clean_series
):
    spec = IoFaultSpec(kind="stale_manifest", pattern="manifest.json")
    _sweep_through_fault(tiny_scenario, tmp_path / "ck", spec)
    ck = _open_checkpoint(tiny_scenario, tmp_path / "ck")
    assert ck.completed_indices() == {1, 2}
    (record,) = quarantine_reasons(ck.directory)
    assert "no digest in the manifest" in record["reason"]


def test_disk_full_degrades_gracefully(tiny_scenario, tmp_path, clean_series):
    before = integrity_counters().get("store_errors", 0)
    spec = IoFaultSpec(kind="disk_full", pattern="snap_*.npz", shots=2)
    faulted, ck = _sweep_through_fault(tiny_scenario, tmp_path / "ck", spec)
    assert faulted.rtt_ms.tobytes() == clean_series.rtt_ms.tobytes()
    assert integrity_counters().get("store_errors", 0) == before + 2
    # The two dropped shards simply are not there; nothing corrupt.
    assert ck.completed_indices() == {2}
    assert quarantine_reasons(ck.directory) == []


def test_disk_full_in_parallel_sweep_degrades_gracefully(
    tiny_scenario, tmp_path, clean_series
):
    spec = IoFaultSpec(kind="disk_full", pattern="snap_*.npz")
    with io_fault(spec):
        series = _sweep(tiny_scenario, tmp_path / "ck", jobs=2)
    assert series.rtt_ms.tobytes() == clean_series.rtt_ms.tobytes()
    ck = _open_checkpoint(tiny_scenario, tmp_path / "ck")
    assert len(ck.completed_indices()) == 2  # one store dropped, rest landed


class TestVerifyCli:
    def _checkpointed_tree(self, tiny_scenario, tmp_path):
        _sweep(tiny_scenario, tmp_path / "ck")
        return _open_checkpoint(tiny_scenario, tmp_path / "ck")

    def test_clean_tree_passes(self, tiny_scenario, tmp_path, capsys):
        from repro.cli import main

        self._checkpointed_tree(tiny_scenario, tmp_path)
        assert main(["verify", str(tmp_path)]) == 0
        assert "PASSED" in capsys.readouterr().out

    def test_corrupted_shard_flagged_by_name(
        self, tiny_scenario, tmp_path, capsys
    ):
        from repro.cli import main

        ck = self._checkpointed_tree(tiny_scenario, tmp_path)
        shard = ck.shard_path(1)
        raw = bytearray(shard.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        shard.write_bytes(bytes(raw))

        assert main(["verify", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "snap_00001.npz" in out
        assert "digest-mismatch" in out
        assert "FAILED" in out

    def test_healed_tree_passes_again(self, tiny_scenario, tmp_path, capsys):
        from repro.cli import main

        ck = self._checkpointed_tree(tiny_scenario, tmp_path)
        ck.shard_path(0).write_bytes(b"garbage")
        assert main(["verify", str(tmp_path)]) == 1
        capsys.readouterr()

        # Heal: resume quarantines + recomputes; the audit then passes
        # (quarantine contents are deliberately out of scope).
        _sweep(tiny_scenario, tmp_path / "ck")
        assert main(["verify", str(tmp_path)]) == 0
