"""Tests for saving/loading simulation outputs."""

import numpy as np
import pytest

from repro.core.pipeline import RttSeries
from repro.experiments.base import ExperimentResult
from repro.network.graph import ConnectivityMode
from repro.persistence import (
    load_experiment_result,
    load_rtt_series,
    save_experiment_result,
    save_rtt_series,
)


@pytest.fixture()
def series():
    rtt = np.array([[10.0, np.inf, 12.5], [np.inf, np.inf, np.inf]])
    return RttSeries(
        mode=ConnectivityMode.BP_ONLY,
        times_s=np.array([0.0, 900.0, 1800.0]),
        rtt_ms=rtt,
    )


class TestRttSeriesRoundtrip:
    def test_roundtrip_exact(self, series, tmp_path):
        path = save_rtt_series(series, tmp_path / "series")
        loaded = load_rtt_series(path)
        assert loaded.mode is ConnectivityMode.BP_ONLY
        np.testing.assert_array_equal(loaded.times_s, series.times_s)
        np.testing.assert_array_equal(loaded.rtt_ms, series.rtt_ms)

    def test_suffix_added(self, series, tmp_path):
        path = save_rtt_series(series, tmp_path / "x")
        assert path.suffix == ".npz"

    def test_inf_preserved(self, series, tmp_path):
        loaded = load_rtt_series(save_rtt_series(series, tmp_path / "s"))
        assert np.isinf(loaded.rtt_ms[0, 1])

    def test_real_series_roundtrip(self, tiny_scenario, tmp_path):
        from repro.core.pipeline import compute_rtt_series_multi

        real = compute_rtt_series_multi(
            tiny_scenario, [ConnectivityMode.HYBRID]
        )[ConnectivityMode.HYBRID]
        loaded = load_rtt_series(save_rtt_series(real, tmp_path / "real"))
        np.testing.assert_array_equal(loaded.rtt_ms, real.rtt_ms)
        assert loaded.reachable_fraction() == real.reachable_fraction()


class TestExperimentResultRoundtrip:
    @pytest.fixture()
    def result(self):
        return ExperimentResult(
            experiment_id="figX",
            title="Test",
            scale_name="tiny",
            tables=["a table"],
            headline={"metric": 1.5, "count": 3},
            data={
                "array": np.array([1.0, 2.0, np.nan]),
                ("bp", 1): 7.0,
                ("hybrid", None): 9.0,
                "nested": {"values": np.array([1, 2, 3])},
            },
        )

    def test_roundtrip_fields(self, result, tmp_path):
        loaded = load_experiment_result(save_experiment_result(result, tmp_path / "r"))
        assert loaded.experiment_id == "figX"
        assert loaded.title == "Test"
        assert loaded.tables == ["a table"]
        assert loaded.headline["metric"] == 1.5

    def test_arrays_become_lists(self, result, tmp_path):
        loaded = load_experiment_result(save_experiment_result(result, tmp_path / "r"))
        assert loaded.data["array"][:2] == [1.0, 2.0]
        assert loaded.data["array"][2] is None  # NaN -> null
        assert loaded.data["nested"]["values"] == [1, 2, 3]

    def test_tuple_keys_flattened(self, result, tmp_path):
        loaded = load_experiment_result(save_experiment_result(result, tmp_path / "r"))
        assert loaded.data["bp|1"] == 7.0
        assert loaded.data["hybrid|"] == 9.0

    def test_render_still_works(self, result, tmp_path):
        loaded = load_experiment_result(save_experiment_result(result, tmp_path / "r"))
        assert "figX" in loaded.render()


class TestAtomicWrites:
    def test_no_temp_files_after_npz_save(self, series, tmp_path):
        save_rtt_series(series, tmp_path / "series")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["series.npz"]

    def test_no_temp_files_after_json_save(self, tmp_path):
        result = ExperimentResult(
            experiment_id="figX", title="T", scale_name="tiny"
        )
        save_experiment_result(result, tmp_path / "r")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json"]

    def test_overwrite_replaces_cleanly(self, series, tmp_path):
        path = save_rtt_series(series, tmp_path / "series")
        again = save_rtt_series(series, tmp_path / "series")
        assert path == again
        loaded = load_rtt_series(path)
        np.testing.assert_array_equal(loaded.rtt_ms, series.rtt_ms)


class TestEdgeCaseRoundtrips:
    def _roundtrip(self, data, tmp_path):
        result = ExperimentResult(
            experiment_id="edge", title="Edge", scale_name="tiny", data=data
        )
        return load_experiment_result(save_experiment_result(result, tmp_path / "e"))

    def test_none_key_becomes_empty_string(self, tmp_path):
        loaded = self._roundtrip({None: 1.5}, tmp_path)
        assert loaded.data[""] == 1.5

    def test_tuple_key_with_none_elements(self, tmp_path):
        loaded = self._roundtrip({(None, "bp", 2): 4.0}, tmp_path)
        assert loaded.data["|bp|2"] == 4.0

    def test_non_finite_floats_become_null(self, tmp_path):
        loaded = self._roundtrip(
            {"values": [np.inf, -np.inf, np.nan, 1.0]}, tmp_path
        )
        assert loaded.data["values"] == [None, None, None, 1.0]

    def test_numpy_scalar_inf_becomes_null(self, tmp_path):
        loaded = self._roundtrip({"scalar": np.float64(np.inf)}, tmp_path)
        assert loaded.data["scalar"] is None

    def test_nested_ndarray_payload(self, tmp_path):
        data = {
            "outer": {
                "inner": {"matrix": np.array([[1.0, np.inf], [3.0, 4.0]])},
                ("a", 1): np.array([5, 6]),
            }
        }
        loaded = self._roundtrip(data, tmp_path)
        assert loaded.data["outer"]["inner"]["matrix"] == [[1.0, None], [3.0, 4.0]]
        assert loaded.data["outer"]["a|1"] == [5, 6]

    def test_bool_and_int_numpy_scalars(self, tmp_path):
        loaded = self._roundtrip(
            {"flag": np.bool_(True), "count": np.int64(7)}, tmp_path
        )
        assert loaded.data["flag"] is True
        assert loaded.data["count"] == 7


class TestMalformedPayloads:
    def test_missing_key_named_in_error(self, tmp_path):
        path = tmp_path / "legacy.json"
        path.write_text('{"experiment_id": "x", "title": "t"}')
        with pytest.raises(ValueError) as excinfo:
            load_experiment_result(path)
        message = str(excinfo.value)
        assert "scale_name" in message and "tables" in message
        assert "missing key" in message

    def test_non_object_payload_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="expected a JSON object"):
            load_experiment_result(path)


class TestRealExperimentRoundtrip:
    def test_fig9_result_roundtrip(self, tmp_path):
        from repro.experiments import get_experiment
        from tests.conftest import TINY_SCALE

        result = get_experiment("fig9")(scale=TINY_SCALE)
        loaded = load_experiment_result(
            save_experiment_result(result, tmp_path / "fig9")
        )
        assert loaded.experiment_id == "fig9"
        assert loaded.tables == result.tables
        # Dict keyed by float latitudes -> stringified keys in JSON.
        assert loaded.data["starlink_fraction_by_lat"]["0.0"] == pytest.approx(
            result.data["starlink_fraction_by_lat"][0.0]
        )
