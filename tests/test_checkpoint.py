"""Tests for checkpoint/resume of RTT sweeps."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.pipeline as pipeline
from repro.context import current, run_context
from repro.core.checkpoint import (
    CheckpointMismatchError,
    RttCheckpoint,
    atomic_write_bytes,
    checkpoint_for,
    checkpoint_root,
    scenario_fingerprint,
)
from repro.core.parallel import FaultPolicy, SweepError
from repro.core.pipeline import compute_rtt_series_multi
from repro.network.graph import ConnectivityMode


@pytest.fixture()
def times():
    return np.array([0.0, 900.0, 1800.0])


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        path = atomic_write_bytes(tmp_path / "x.bin", b"payload")
        assert path.read_bytes() == b"payload"

    def test_creates_parents(self, tmp_path):
        path = atomic_write_bytes(tmp_path / "a" / "b" / "x.bin", b"p")
        assert path.read_bytes() == b"p"

    def test_no_temp_files_left(self, tmp_path):
        atomic_write_bytes(tmp_path / "x.bin", b"payload")
        assert [p.name for p in tmp_path.iterdir()] == ["x.bin"]

    def test_overwrites_atomically(self, tmp_path):
        atomic_write_bytes(tmp_path / "x.bin", b"old")
        atomic_write_bytes(tmp_path / "x.bin", b"new")
        assert (tmp_path / "x.bin").read_bytes() == b"new"


class TestRttCheckpoint:
    def test_store_load_roundtrip(self, tmp_path, times):
        ck = RttCheckpoint.open(tmp_path / "ck", ConnectivityMode.BP_ONLY, times, 4)
        row = np.array([10.0, np.inf, 12.5, 99.0])
        ck.store_snapshot(1, row)
        np.testing.assert_array_equal(ck.load_snapshot(1), row)
        assert ck.completed_indices() == {1}
        assert not ck.is_complete()

    def test_shards_written_atomically(self, tmp_path, times):
        ck = RttCheckpoint.open(tmp_path / "ck", ConnectivityMode.BP_ONLY, times, 2)
        ck.store_snapshot(0, np.array([1.0, 2.0]))
        names = sorted(p.name for p in (tmp_path / "ck").iterdir())
        assert names == ["manifest.json", "snap_00000.npz"]

    def test_wrong_shape_rejected(self, tmp_path, times):
        ck = RttCheckpoint.open(tmp_path / "ck", ConnectivityMode.BP_ONLY, times, 4)
        with pytest.raises(ValueError, match="shape"):
            ck.store_snapshot(0, np.array([1.0, 2.0]))

    def test_nan_row_rejected_before_writing(self, tmp_path, times):
        # A NaN shard would fail verification and be recomputed on every
        # resume, so the store refuses it and writes neither shard nor digest.
        ck = RttCheckpoint.open(tmp_path / "ck", ConnectivityMode.BP_ONLY, times, 3)
        with pytest.raises(ValueError, match="NaN"):
            ck.store_snapshot(1, np.array([np.nan, 1.0, 2.0]))
        assert not ck.shard_path(1).exists()
        manifest = json.loads((ck.directory / "manifest.json").read_text())
        assert not manifest.get("digests")

    def test_reopen_validates_num_pairs(self, tmp_path, times):
        RttCheckpoint.open(tmp_path / "ck", ConnectivityMode.BP_ONLY, times, 4)
        with pytest.raises(CheckpointMismatchError, match="num_pairs"):
            RttCheckpoint.open(tmp_path / "ck", ConnectivityMode.BP_ONLY, times, 5)

    def test_reopen_validates_mode(self, tmp_path, times):
        RttCheckpoint.open(tmp_path / "ck", ConnectivityMode.BP_ONLY, times, 4)
        with pytest.raises(CheckpointMismatchError, match="mode"):
            RttCheckpoint.open(tmp_path / "ck", ConnectivityMode.HYBRID, times, 4)

    def test_reopen_validates_times(self, tmp_path, times):
        RttCheckpoint.open(tmp_path / "ck", ConnectivityMode.BP_ONLY, times, 4)
        with pytest.raises(CheckpointMismatchError, match="times_s"):
            RttCheckpoint.open(
                tmp_path / "ck", ConnectivityMode.BP_ONLY, times + 1.0, 4
            )

    def test_corrupt_manifest_raises(self, tmp_path, times):
        (tmp_path / "ck").mkdir()
        (tmp_path / "ck" / "manifest.json").write_text("{not json")
        with pytest.raises(CheckpointMismatchError, match="unreadable"):
            RttCheckpoint.open(tmp_path / "ck", ConnectivityMode.BP_ONLY, times, 4)


class TestFingerprint:
    def test_stable(self, tiny_scenario):
        assert scenario_fingerprint(
            tiny_scenario, ConnectivityMode.BP_ONLY
        ) == scenario_fingerprint(tiny_scenario, ConnectivityMode.BP_ONLY)

    def test_mode_changes_fingerprint(self, tiny_scenario):
        assert scenario_fingerprint(
            tiny_scenario, ConnectivityMode.BP_ONLY
        ) != scenario_fingerprint(tiny_scenario, ConnectivityMode.HYBRID)

    def test_faults_change_fingerprint(self, tiny_scenario):
        from repro.faults import FaultSpec

        degraded = tiny_scenario.with_assembly(faults=FaultSpec(sat=0.1))
        assert scenario_fingerprint(
            tiny_scenario, ConnectivityMode.BP_ONLY
        ) != scenario_fingerprint(degraded, ConnectivityMode.BP_ONLY)

    def test_ambient_fault_spec_changes_fingerprint(self, tiny_scenario):
        from repro.faults import FaultSpec

        plain = scenario_fingerprint(tiny_scenario, ConnectivityMode.BP_ONLY)
        with run_context(faults=FaultSpec(sat=0.1)):
            assert scenario_fingerprint(tiny_scenario, ConnectivityMode.BP_ONLY) != plain

    def test_ambient_fault_spec_ignored_under_explicit_faults(self, tiny_scenario):
        """A scenario with its own faults runs under them alone, so an
        ambient spec must not move its checkpoint directory."""
        from repro.faults import FaultSpec

        degraded = tiny_scenario.with_assembly(faults=FaultSpec(sat=0.1, seed=1))
        alone = scenario_fingerprint(degraded, ConnectivityMode.BP_ONLY)
        with run_context(faults=FaultSpec(relay=0.3, seed=9)):
            assert scenario_fingerprint(degraded, ConnectivityMode.BP_ONLY) == alone


class TestCheckpointRoot:
    def test_default_off(self):
        assert current().checkpoint_root is None

    def test_context_sets_and_restores(self, tmp_path):
        with checkpoint_root(tmp_path):
            assert current().checkpoint_root == tmp_path
        assert current().checkpoint_root is None

    def test_nested_restores_outer(self, tmp_path):
        with checkpoint_root(tmp_path / "outer"):
            with checkpoint_root(tmp_path / "inner"):
                assert current().checkpoint_root == tmp_path / "inner"
            assert current().checkpoint_root == tmp_path / "outer"


def _crash_after_first_snapshot(index: int, time_s: float) -> None:
    """Worker fault hook: every snapshot but the first dies."""
    if index >= 1:
        raise RuntimeError("injected mid-run crash")


def _rtt_checkpoint(root, scenario, mode) -> RttCheckpoint:
    """The checkpoint an RTT sweep of ``scenario`` uses under ``root``."""
    return checkpoint_for(
        root,
        scenario,
        mode,
        label="",
        times_s=scenario.times_s,
        row_len=len(scenario.pairs),
    )


class TestResume:
    """The acceptance story: kill a sweep mid-run, resume from shards."""

    def test_interrupted_sweep_resumes_without_recompute(
        self, tiny_scenario, tmp_path, monkeypatch
    ):
        mode = ConnectivityMode.BP_ONLY
        baseline = compute_rtt_series_multi(tiny_scenario, [mode])[mode]

        # "Kill" the sweep: workers crash on every snapshot but the first,
        # retries exhausted, no serial rescue — exactly a mid-run abort.
        with checkpoint_root(tmp_path), pytest.raises(SweepError) as excinfo:
            compute_rtt_series_multi(
                tiny_scenario,
                [mode],
                processes=2,
                fault_hook=_crash_after_first_snapshot,
                policy=FaultPolicy(
                    max_attempts=1, backoff_base_s=0.0, serial_fallback=False
                ),
            )
        assert {f.index for f in excinfo.value.failures} == {1, 2}
        ck = _rtt_checkpoint(tmp_path, tiny_scenario, mode)
        assert ck.completed_indices() == {0}

        # Resume: count actual snapshot computations; the checkpointed
        # snapshot must contribute zero of them.
        computed_times = []
        real = pipeline.pair_rtts_on_graph

        def counting(graph, pairs):
            computed_times.append(graph.time_s)
            return real(graph, pairs)

        monkeypatch.setattr(pipeline, "pair_rtts_on_graph", counting)
        with checkpoint_root(tmp_path):
            resumed = compute_rtt_series_multi(tiny_scenario, [mode])[mode]

        expected_times = [float(t) for t in tiny_scenario.times_s[1:]]
        assert computed_times == expected_times  # snapshot 0 never recomputed
        np.testing.assert_array_equal(resumed.rtt_ms, baseline.rtt_ms)
        np.testing.assert_array_equal(resumed.times_s, baseline.times_s)
        assert ck.is_complete()

    def test_fully_checkpointed_parallel_run_computes_nothing(
        self, tiny_scenario, tmp_path
    ):
        mode = ConnectivityMode.BP_ONLY

        def explode(index, time_s):  # pragma: no cover - must never run
            raise AssertionError("resumed run recomputed a checkpointed snapshot")

        with checkpoint_root(tmp_path):
            first = compute_rtt_series_multi(tiny_scenario, [mode])[mode]
            assert _rtt_checkpoint(tmp_path, tiny_scenario, mode).is_complete()
            resumed = compute_rtt_series_multi(
                tiny_scenario,
                [mode],
                processes=2,
                fault_hook=explode,
                policy=FaultPolicy(max_attempts=1, serial_fallback=False),
            )[mode]
        np.testing.assert_array_equal(resumed.rtt_ms, first.rtt_ms)

    def test_serial_sweep_checkpoints_under_ambient_root(
        self, tiny_scenario, tmp_path
    ):
        mode = ConnectivityMode.BP_ONLY
        with checkpoint_root(tmp_path):
            series = compute_rtt_series_multi(tiny_scenario, [mode])[mode]
        ck = _rtt_checkpoint(tmp_path, tiny_scenario, mode)
        assert ck.is_complete()
        for index in range(ck.num_snapshots):
            np.testing.assert_array_equal(
                ck.load_snapshot(index), series.rtt_ms[:, index]
            )

    def test_progress_reports_resumed_rows(self, tiny_scenario, tmp_path):
        mode = ConnectivityMode.BP_ONLY
        ticks = []
        with checkpoint_root(tmp_path):
            compute_rtt_series_multi(tiny_scenario, [mode])
            compute_rtt_series_multi(
                tiny_scenario,
                [mode],
                processes=2,
                progress=lambda done, total: ticks.append((done, total)),
            )
        assert ticks == [(3, 3)]


def _filled_checkpoint(directory, times, num_pairs=3):
    """A complete checkpoint whose row for index i is a known function."""
    ck = RttCheckpoint.open(
        directory, ConnectivityMode.BP_ONLY, times, num_pairs
    )
    for i in range(len(times)):
        ck.store_snapshot(i, _row(i, num_pairs))
    return ck


def _row(index: int, num_pairs: int) -> np.ndarray:
    """Deterministic stand-in for one snapshot's computed RTT row."""
    return np.arange(num_pairs, dtype=float) + 100.0 * index + 1.0


def _stacked_rows(ck: RttCheckpoint) -> np.ndarray:
    """Every shard's row, as the columns of one array."""
    return np.stack([ck.load_snapshot(i) for i in range(ck.num_snapshots)], axis=1)


def _rerecord_digest(ck: RttCheckpoint, index: int) -> None:
    """Update the manifest digest to match the shard's current bytes.

    Lets a test corrupt a *payload* without tripping the digest check,
    isolating the structural verification layer.
    """
    from repro.integrity.digest import digest_file

    manifest_path = ck.directory / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    shard = ck.shard_path(index)
    manifest["digests"][shard.name] = digest_file(shard)
    manifest_path.write_text(json.dumps(manifest))


class TestCorruptShards:
    """Resume must quarantine and recompute, never trust or crash."""

    def test_truncated_shard_quarantined(self, tmp_path, times):
        ck = _filled_checkpoint(tmp_path / "ck", times)
        shard = ck.shard_path(1)
        shard.write_bytes(shard.read_bytes()[:20])
        assert ck.completed_indices() == {0, 2}
        assert not shard.exists()
        quarantined = tmp_path / "ck" / "quarantine" / shard.name
        assert quarantined.exists()
        reason = json.loads(
            (quarantined.parent / (shard.name + ".reason.json")).read_text()
        )
        assert "digest mismatch" in reason["reason"]

    def test_bit_flipped_shard_quarantined(self, tmp_path, times):
        ck = _filled_checkpoint(tmp_path / "ck", times)
        shard = ck.shard_path(0)
        raw = bytearray(shard.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        shard.write_bytes(bytes(raw))
        assert ck.completed_indices() == {1, 2}

    def test_wrong_dtype_shard_quarantined(self, tmp_path, times):
        ck = _filled_checkpoint(tmp_path / "ck", times)
        buffer = io.BytesIO()
        np.savez_compressed(
            buffer,
            rtt_ms=np.array([1, 2, 3], dtype=np.int64),
            time_s=np.float64(times[1]),
        )
        ck.shard_path(1).write_bytes(buffer.getvalue())
        _rerecord_digest(ck, 1)
        assert ck.completed_indices() == {0, 2}
        reasons = json.loads(
            (
                tmp_path / "ck" / "quarantine" / "snap_00001.npz.reason.json"
            ).read_text()
        )
        assert "dtype" in reasons["reason"]

    def test_index_disagreement_quarantined(self, tmp_path, times):
        # Shard 2's bytes copied over shard 1: digest re-recorded, so only
        # the embedded time_s betrays the manifest/shard disagreement.
        ck = _filled_checkpoint(tmp_path / "ck", times)
        ck.shard_path(1).write_bytes(ck.shard_path(2).read_bytes())
        _rerecord_digest(ck, 1)
        assert ck.completed_indices() == {0, 2}

    def test_unrecorded_shard_quarantined(self, tmp_path, times):
        # A shard landed but its manifest update never did (stale
        # manifest after a crash between the two writes).
        ck = _filled_checkpoint(tmp_path / "ck", times)
        manifest_path = tmp_path / "ck" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["digests"]["snap_00002.npz"]
        manifest_path.write_text(json.dumps(manifest))
        assert ck.completed_indices() == {0, 1}

    def test_out_of_range_shard_quarantined(self, tmp_path, times):
        ck = _filled_checkpoint(tmp_path / "ck", times)
        stray = tmp_path / "ck" / "snap_00009.npz"
        stray.write_bytes((tmp_path / "ck" / "snap_00000.npz").read_bytes())
        assert ck.completed_indices() == {0, 1, 2}
        assert not stray.exists()

    def test_quarantine_prunes_manifest_digest(self, tmp_path, times):
        ck = _filled_checkpoint(tmp_path / "ck", times)
        ck.shard_path(1).write_bytes(b"garbage")
        ck.completed_indices()
        digests = ck.recorded_digests()
        assert "snap_00001.npz" not in digests
        assert set(digests) == {"snap_00000.npz", "snap_00002.npz"}

    def test_recompute_after_quarantine_completes(self, tmp_path, times):
        ck = _filled_checkpoint(tmp_path / "ck", times)
        ck.shard_path(0).write_bytes(b"garbage")
        missing = set(range(3)) - ck.completed_indices()
        for i in missing:
            ck.store_snapshot(i, _row(i, 3))
        assert ck.is_complete()

    def test_fresh_quarantines_mismatched_checkpoint(self, tmp_path, times):
        RttCheckpoint.open(tmp_path / "ck", ConnectivityMode.BP_ONLY, times, 4)
        with pytest.raises(CheckpointMismatchError, match="--fresh"):
            RttCheckpoint.open(
                tmp_path / "ck", ConnectivityMode.HYBRID, times, 4
            )
        ck = RttCheckpoint.open(
            tmp_path / "ck", ConnectivityMode.HYBRID, times, 4, fresh=True
        )
        assert ck.completed_indices() == set()
        assert (tmp_path / "quarantine" / "ck").is_dir()

    def test_mismatch_error_names_both_fingerprints(self, tmp_path, times):
        RttCheckpoint.open(tmp_path / "ck", ConnectivityMode.BP_ONLY, times, 4)
        with pytest.raises(CheckpointMismatchError) as excinfo:
            RttCheckpoint.open(
                tmp_path / "ck", ConnectivityMode.BP_ONLY, times, 5
            )
        message = str(excinfo.value)
        assert str(tmp_path / "ck" / "manifest.json") in message
        assert "!= expected" in message  # both fingerprints present


#: One corruption op per shard index: how (if at all) to damage it.
_CORRUPTIONS = st.lists(
    st.sampled_from(["none", "truncate", "bitflip", "delete", "unrecord"]),
    min_size=3,
    max_size=3,
)


class TestReconvergence:
    @settings(max_examples=25, deadline=None)
    @given(ops=_CORRUPTIONS)
    def test_quarantine_plus_recompute_reconverges(self, ops, tmp_path_factory):
        """Any mix of shard damage heals back to the clean-run series."""
        directory = tmp_path_factory.mktemp("ck") / "ck"
        times = np.array([0.0, 900.0, 1800.0])
        ck = _filled_checkpoint(directory, times)
        clean = _stacked_rows(ck)

        manifest_path = directory / "manifest.json"
        for index, op in enumerate(ops):
            shard = ck.shard_path(index)
            if op == "truncate":
                shard.write_bytes(shard.read_bytes()[: max(1, shard.stat().st_size // 2)])
            elif op == "bitflip":
                raw = bytearray(shard.read_bytes())
                raw[len(raw) // 2] ^= 0x01
                shard.write_bytes(bytes(raw))
            elif op == "delete":
                shard.unlink()
            elif op == "unrecord":
                manifest = json.loads(manifest_path.read_text())
                manifest["digests"].pop(shard.name, None)
                manifest_path.write_text(json.dumps(manifest))

        # The resume protocol: verify, quarantine, recompute the gaps.
        surviving = ck.completed_indices()
        assert surviving == {i for i, op in enumerate(ops) if op == "none"}
        for index in set(range(3)) - surviving:
            ck.store_snapshot(index, _row(index, 3))
        assert _stacked_rows(ck).tobytes() == clean.tobytes()
        assert ck.completed_indices() == {0, 1, 2}
