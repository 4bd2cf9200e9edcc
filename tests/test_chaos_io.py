"""Chaos tests: the sweep survives injected storage faults and self-heals.

Each test arms one :class:`repro.faults.IoFaultSpec` (torn write, bit
flip, disk full, stale manifest), runs a checkpointed sweep through the
fault, then resumes with healthy storage and asserts the healed series
is byte-identical to a clean run — the acceptance criterion for the
self-healing resume path. ``repro verify`` is exercised against the same
trees: it must flag a deliberately corrupted shard by name and exit
non-zero.
"""

import numpy as np
import pytest

from repro.context import run_context
from repro.core.checkpoint import RttCheckpoint, checkpoint_for, checkpoint_root
from repro.core.pipeline import compute_rtt_series_multi
from repro.faults import (
    IO_FAULT_KINDS,
    IoFaultSpec,
    consume_io_fault,
    corrupt_bytes,
)
from repro.integrity.quarantine import integrity_counters
from repro.network.graph import ConnectivityMode
from tests.conftest import quarantine_reasons

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
        with run_context(io_fault=IoFaultSpec(kind="disk_full", pattern="x.bin")):
            assert consume_io_fault(tmp_path / "x.bin") == "disk_full"
            assert consume_io_fault(tmp_path / "x.bin") is None

    def test_pattern_and_after(self, tmp_path):
        spec = IoFaultSpec(kind="bit_flip", pattern="snap_*.npz", after=1)
        with run_context(io_fault=spec):
            assert consume_io_fault(tmp_path / "manifest.json") is None
            assert consume_io_fault(tmp_path / "snap_00000.npz") is None  # after=1
            assert consume_io_fault(tmp_path / "snap_00001.npz") == "bit_flip"

    def test_no_ambient_spec_is_silent(self, tmp_path):
        assert consume_io_fault(tmp_path / "anything") is None

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
    with run_context(io_fault=spec):
        series = _sweep(tiny_scenario, root)
    return series, ck


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
    with run_context(io_fault=spec):
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
