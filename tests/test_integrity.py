"""Tests for the integrity subsystem: digests, validators, guards, audit."""

import json

import numpy as np
import pytest

from repro.core.pipeline import RttSeries
from repro.flows.traffic import CityPair
from repro.integrity import (
    Column,
    InputValidationError,
    InvariantViolation,
    LATITUDE,
    TableSpec,
    check_allocation,
    check_graph,
    check_rtt_series,
    digest_bytes,
    digest_file,
    quarantine_file,
    quarantine_reasons,
    rtt_lower_bound_ms,
    set_strict,
    strict_checks,
    strict_enabled,
    validate_latlon_arrays,
    verify_tree,
)
from repro.network.graph import ConnectivityMode


class TestDigest:
    def test_format(self):
        assert digest_bytes(b"abc").startswith("sha256:")

    def test_file_matches_bytes(self, tmp_path):
        payload = b"x" * (3 << 20) + b"tail"  # multiple streaming chunks
        path = tmp_path / "f.bin"
        path.write_bytes(payload)
        assert digest_file(path) == digest_bytes(payload)

    def test_sensitive_to_single_bit(self):
        assert digest_bytes(b"\x00") != digest_bytes(b"\x01")


class TestValidators:
    SPEC = TableSpec(
        name="t",
        columns=(
            Column("name", kind="str"),
            Column("lat", **LATITUDE),
            Column("count", kind="int", min_value=1),
        ),
        unique=("name",),
    )

    def test_valid_rows_pass(self):
        assert self.SPEC.validate([("a", 10.0, 3), ("b", -89.5, 1)]) == 2

    def test_out_of_range_names_row_and_column(self):
        with pytest.raises(InputValidationError) as excinfo:
            self.SPEC.validate([("a", 10.0, 3), ("b", 91.0, 1)])
        err = excinfo.value
        assert (err.source, err.row, err.column) == ("t", 1, "lat")

    def test_nan_rejected(self):
        with pytest.raises(InputValidationError, match="non-finite"):
            self.SPEC.validate([("a", float("nan"), 1)])

    def test_duplicate_key_names_first_row(self):
        with pytest.raises(InputValidationError, match="first seen at row 0"):
            self.SPEC.validate([("a", 1.0, 1), ("a", 2.0, 2)])

    def test_non_integer_count_rejected(self):
        with pytest.raises(InputValidationError, match="integer"):
            self.SPEC.validate([("a", 1.0, 1.5)])

    def test_mapping_rows_with_missing_column(self):
        with pytest.raises(InputValidationError, match="missing column"):
            self.SPEC.validate([{"name": "a", "lat": 1.0}])

    def test_latlon_arrays_flag_offending_row(self):
        with pytest.raises(InputValidationError, match="row 1.*lon_deg"):
            validate_latlon_arrays([0.0, 1.0], [0.0, 181.0], source="s")

    def test_embedded_tables_are_valid(self):
        # The shipped data passes its own gate (the real regression guard).
        from repro.ground.aircraft import _validate_air_tables
        from repro.ground.cities import load_cities

        _validate_air_tables()
        assert len(load_cities(50)) == 50


class TestStrictMode:
    def test_suite_runs_strict(self):
        assert strict_enabled()  # conftest autouse fixture

    def test_context_restores(self):
        with strict_checks(False):
            assert not strict_enabled()
            with strict_checks(True):
                assert strict_enabled()
            assert not strict_enabled()
        assert strict_enabled()

    def test_set_strict_returns_previous(self):
        assert set_strict(True) is True  # suite already strict


def _series(rtt, times=None):
    rtt = np.asarray(rtt, dtype=float)
    times = np.arange(rtt.shape[1], dtype=float) if times is None else times
    return RttSeries(mode=ConnectivityMode.BP_ONLY, times_s=times, rtt_ms=rtt)


class TestRttGuards:
    PAIRS = [CityPair(a=0, b=1, distance_m=1_000_000.0)]

    def test_clean_series_passes(self):
        check_rtt_series(_series([[10.0, np.inf]]), self.PAIRS)

    def test_nan_rejected(self):
        with pytest.raises(InvariantViolation, match="NaN"):
            check_rtt_series(_series([[np.nan, 1.0]]))

    def test_negative_rejected(self):
        with pytest.raises(InvariantViolation, match="negative"):
            check_rtt_series(_series([[-1.0, 1.0]]))

    def test_faster_than_light_rejected(self):
        bound = float(rtt_lower_bound_ms(np.array([1_000_000.0]))[0])
        with pytest.raises(InvariantViolation, match="speed-of-light"):
            check_rtt_series(_series([[bound * 0.5, bound * 2]]), self.PAIRS)

    def test_bound_is_below_great_circle_rtt(self):
        # The chord bound must not false-positive on a fiber-like path
        # that follows the surface at c.
        from repro.constants import SPEED_OF_LIGHT

        distance = 15_000_000.0  # nearly antipodal
        surface_rtt = 2e3 * distance / SPEED_OF_LIGHT
        assert float(rtt_lower_bound_ms(np.array([distance]))[0]) < surface_rtt

    def test_real_sweep_passes(self, tiny_scenario):
        from repro.core.pipeline import compute_rtt_series_multi

        series = compute_rtt_series_multi(
            tiny_scenario, [ConnectivityMode.HYBRID]
        )[ConnectivityMode.HYBRID]
        check_rtt_series(series, tiny_scenario.pairs)


class TestGraphGuards:
    def test_real_graphs_pass(self, tiny_bp_graph, tiny_hybrid_graph):
        check_graph(tiny_bp_graph)
        check_graph(tiny_hybrid_graph)

    def test_edge_out_of_range_rejected(self, tiny_bp_graph):
        import dataclasses

        edges = np.asarray(tiny_bp_graph.edges).copy()
        edges[0, 0] = tiny_bp_graph.num_nodes + 5
        bad = dataclasses.replace(tiny_bp_graph, edges=edges)
        with pytest.raises(InvariantViolation, match="outside"):
            check_graph(bad)


class TestAllocationGuards:
    def test_clean_allocation_passes(self):
        check_allocation(
            np.array([1.0, 2.0]), np.array([3.0]), np.array([3.0])
        )

    def test_overloaded_link_rejected(self):
        with pytest.raises(InvariantViolation, match="capacity not conserved"):
            check_allocation(
                np.array([5.0]), np.array([5.0]), np.array([3.0])
            )

    def test_negative_rate_rejected(self):
        with pytest.raises(InvariantViolation, match="negative rate"):
            check_allocation(
                np.array([-1.0]), np.array([0.0]), np.array([3.0])
            )

    def test_maxmin_runs_its_own_guard_under_strict(self):
        from repro.flows.maxmin import max_min_fair_allocation

        result = max_min_fair_allocation(
            [np.array([0]), np.array([0, 1])],
            np.array([10.0, 4.0]),
        )
        assert result.total_rate > 0  # guard ran (strict) and passed


class TestQuarantine:
    def test_move_and_reason(self, tmp_path):
        victim = tmp_path / "bad.npz"
        victim.write_bytes(b"junk")
        target = quarantine_file(victim, "digest mismatch", recorded="a", actual="b")
        assert not victim.exists()
        assert target.read_bytes() == b"junk"
        (record,) = quarantine_reasons(tmp_path)
        assert record["reason"] == "digest mismatch"
        assert record["recorded"] == "a"

    def test_repeat_quarantine_gets_new_slot(self, tmp_path):
        for _ in range(2):
            victim = tmp_path / "bad.npz"
            victim.write_bytes(b"junk")
            quarantine_file(victim, "again")
        names = sorted(p.name for p in (tmp_path / "quarantine").iterdir())
        assert "bad.npz" in names and "bad.npz.1" in names

    def test_missing_file_is_not_an_error(self, tmp_path):
        assert quarantine_file(tmp_path / "gone.npz", "x") is None


class TestVerifyTree:
    def test_empty_dir_passes(self, tmp_path):
        report = verify_tree(tmp_path)
        assert report.ok
        assert "PASSED" in report.format()

    def test_missing_dir_fails(self, tmp_path):
        assert not verify_tree(tmp_path / "absent").ok

    def test_malformed_result_json_flagged(self, tmp_path):
        (tmp_path / "r.json").write_text(json.dumps({"kind": "result"}))
        report = verify_tree(tmp_path)
        assert any(v.code == "bad-result" for v in report.violations)

    def test_unknown_kind_ignored(self, tmp_path):
        (tmp_path / "other.json").write_text(json.dumps({"kind": "mystery"}))
        assert verify_tree(tmp_path).ok

    def test_saved_series_roundtrip_passes(self, tmp_path):
        from repro.persistence import save_rtt_series

        save_rtt_series(_series([[1.0, np.inf]]), tmp_path / "s.npz")
        report = verify_tree(tmp_path)
        assert report.ok and report.checked.get("npz series") == 1

    def test_nan_series_flagged(self, tmp_path):
        from repro.persistence import save_rtt_series

        save_rtt_series(_series([[np.nan, 1.0]]), tmp_path / "s.npz")
        report = verify_tree(tmp_path)
        assert [v.code for v in report.violations] == ["invalid-rtt"]

    def test_quarantine_contents_not_reflagged(self, tmp_path):
        qdir = tmp_path / "quarantine"
        qdir.mkdir()
        (qdir / "snap_00000.npz").write_bytes(b"known bad")
        assert verify_tree(tmp_path).ok


class TestPersistenceValidation:
    def test_foreign_npz_rejected(self, tmp_path):
        from repro.persistence import load_rtt_series

        np.savez(tmp_path / "x.npz", other=np.zeros(3))
        with pytest.raises(ValueError, match="missing array"):
            load_rtt_series(tmp_path / "x.npz")

    def test_shape_mismatch_rejected(self, tmp_path):
        from repro.persistence import load_rtt_series

        np.savez(
            tmp_path / "x.npz",
            mode=np.array("bp"),
            times_s=np.zeros(3),
            rtt_ms=np.zeros((2, 2)),
        )
        with pytest.raises(ValueError, match="snapshot"):
            load_rtt_series(tmp_path / "x.npz")


class TestPresetValidation:
    def test_all_presets_pass(self):
        from repro.orbits.presets import PRESET_NAMES, preset

        for name in PRESET_NAMES:
            preset(name)

    def test_bogus_shell_rejected(self):
        from repro.orbits.constellation import Constellation, Shell
        from repro.orbits.presets import validate_constellation

        bogus = Constellation(
            name="bogus",
            shells=(
                Shell(
                    name="km-not-m",
                    num_planes=10,
                    sats_per_plane=10,
                    altitude_m=550.0,  # kilometres where metres belong
                    inclination_deg=53.0,
                    min_elevation_deg=25.0,
                ),
            ),
        )
        with pytest.raises(InputValidationError, match="altitude_m"):
            validate_constellation(bogus)


class TestFiberValidation:
    def test_transposed_latlon_rejected(self):
        from repro.network.fiber import city_fiber_edges

        with pytest.raises(InputValidationError, match="lat_deg"):
            city_fiber_edges(
                np.array([100.0, 0.0]), np.array([0.0, 0.0]), 1000.0
            )
