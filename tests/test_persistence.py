"""Tests for saving/loading simulation outputs.

An experiment result round-trips through JSON. An RTT series has one
archive, its checkpoint: a rerun under the same checkpoint root reloads
it without evaluating a snapshot.
"""

import dataclasses
import json
import os

import numpy as np
import pytest

import repro.core.pipeline as pipeline
from repro import obs
from repro.core.checkpoint import RttCheckpoint, checkpoint_root
from repro.core.parallel import map_snapshot_rows
from repro.core.pipeline import compute_rtt_series_multi
from repro.experiments.base import ExperimentResult
from repro.integrity import verify_tree
from repro.network.graph import ConnectivityMode
from repro.persistence import load_experiment_result, save_experiment_result

BP = ConnectivityMode.BP_ONLY

#: An RTT series (pairs x snapshots) with an unreachable pair and cell.
_ROWS = np.array([[10.0, np.inf, 12.5], [np.inf, np.inf, np.inf]])
_TIMES = np.array([0.0, 900.0, 1800.0])


def _serve_rows(scenario, time_s, mode) -> np.ndarray:
    return _ROWS[:, int(np.flatnonzero(_TIMES == time_s)[0])]


def _explode(scenario, time_s, mode) -> np.ndarray:  # pragma: no cover
    raise AssertionError("the rerun evaluated a snapshot")


def _sweep(scenario, root, evaluator) -> np.ndarray:
    """``evaluator`` mapped over ``_TIMES`` under checkpoint ``root``."""
    with checkpoint_root(root):
        rows = map_snapshot_rows(
            scenario, [BP], evaluator, row_len=len(_ROWS), times_s=_TIMES
        )
    return rows[BP]


class TestRttSeriesRoundtrip:
    """A rerun under the same checkpoint root is the series' reader."""

    def test_roundtrip_exact(self, tiny_scenario, tmp_path):
        _sweep(tiny_scenario, tmp_path, _serve_rows)
        reloaded = _sweep(tiny_scenario, tmp_path, _explode)
        assert reloaded.tobytes() == _ROWS.tobytes()

    def test_inf_preserved(self, tiny_scenario, tmp_path):
        _sweep(tiny_scenario, tmp_path, _serve_rows)
        reloaded = _sweep(tiny_scenario, tmp_path, _explode)
        assert np.isinf(reloaded[0, 1]) and np.isinf(reloaded[1]).all()

    def test_real_series_roundtrip(self, tiny_scenario, tmp_path, monkeypatch):
        """BP + hybrid reload bit-identically, every cell a checkpoint hit."""
        modes = [ConnectivityMode.BP_ONLY, ConnectivityMode.HYBRID]
        with checkpoint_root(tmp_path):
            archived = compute_rtt_series_multi(tiny_scenario, modes)

        def explode(graph, pairs):  # pragma: no cover - must never run
            raise AssertionError("the rerun evaluated a snapshot")

        monkeypatch.setattr(pipeline, "pair_rtts_on_graph", explode)
        # A copy holds no cached layers: nothing can come from memory.
        copy = dataclasses.replace(tiny_scenario)
        with checkpoint_root(tmp_path), obs.observe() as registry:
            reloaded = compute_rtt_series_multi(copy, modes)
        for mode in modes:
            old, new = archived[mode], reloaded[mode]
            assert new.rtt_ms.tobytes() == old.rtt_ms.tobytes()
            assert new.reachable_fraction() == old.reachable_fraction()
        counters = registry.snapshot()["counters"]
        assert counters["checkpoint.hits"] == len(modes) * len(copy.times_s)
        assert "checkpoint.misses" not in counters


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
    def test_no_temp_files_after_npz_save(self, tiny_scenario, tmp_path):
        _sweep(tiny_scenario, tmp_path, _serve_rows)
        (directory,) = tmp_path.iterdir()
        names = sorted(p.name for p in directory.iterdir())
        shards = [f"snap_{i:05d}.npz" for i in range(len(_TIMES))]
        assert names == ["manifest.json", *shards]

    def test_no_temp_files_after_json_save(self, tmp_path):
        result = ExperimentResult(
            experiment_id="figX", title="T", scale_name="tiny"
        )
        save_experiment_result(result, tmp_path / "r")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json"]

    def test_overwrite_replaces_cleanly(self, tmp_path):
        old = ExperimentResult(experiment_id="figX", title="old", scale_name="tiny")
        new = ExperimentResult(experiment_id="figX", title="new", scale_name="tiny")
        path = save_experiment_result(old, tmp_path / "r")
        again = save_experiment_result(new, tmp_path / "r")
        assert path == again
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json"]
        assert load_experiment_result(path).title == "new"

    def test_permissions_follow_the_umask(self, tmp_path):
        """Results, shards and manifests are as readable as any new file."""
        previous = os.umask(0o022)
        try:
            result = ExperimentResult(
                experiment_id="figX", title="T", scale_name="tiny"
            )
            saved = save_experiment_result(result, tmp_path / "r")
            ck = RttCheckpoint.open(
                tmp_path / "ck", ConnectivityMode.BP_ONLY, np.zeros(1), 2
            )
            shard = ck.store_snapshot(0, np.array([1.0, np.inf]))
        finally:
            os.umask(previous)
        for path in (saved, shard, ck.directory / "manifest.json"):
            assert oct(path.stat().st_mode & 0o777) == oct(0o644), path.name


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


def _valid_payload() -> dict:
    return {
        "kind": "result",
        "experiment_id": "figX",
        "title": "T",
        "scale_name": "tiny",
        "tables": ["a table"],
        "headline": {"metric": 1.5},
        "data": {},
    }


def _without(key: str) -> dict:
    payload = _valid_payload()
    del payload[key]
    return payload


#: (id, file text): saved results both the loader and ``repro verify`` reject.
_MALFORMED_RESULTS = [
    ("not-json", "oops"),
    ("json-list", "[1, 2, 3]"),
    ("metrics-kind", json.dumps({**_valid_payload(), "kind": "metrics"})),
    ("no-headline", json.dumps(_without("headline"))),
    ("non-string-table", json.dumps({**_valid_payload(), "tables": [1]})),
]


class TestMalformedPayloads:
    def test_missing_key_named_in_error(self, tmp_path):
        path = tmp_path / "legacy.json"
        path.write_text('{"experiment_id": "x", "title": "t"}')
        with pytest.raises(ValueError) as excinfo:
            load_experiment_result(path)
        message = str(excinfo.value)
        assert "scale_name" in message and "tables" in message
        assert "missing required key" in message

    def test_non_object_payload_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="expected object"):
            load_experiment_result(path)

    def test_valid_payload_accepted(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps(_valid_payload()))
        assert load_experiment_result(path).experiment_id == "figX"
        assert verify_tree(tmp_path).ok

    @pytest.mark.parametrize(
        "text", [pytest.param(text, id=name) for name, text in _MALFORMED_RESULTS]
    )
    def test_loader_rejects_naming_the_file(self, tmp_path, text):
        path = tmp_path / "bad-result.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="bad-result.json"):
            load_experiment_result(path)

    @pytest.mark.parametrize(
        "text", [pytest.param(text, id=name) for name, text in _MALFORMED_RESULTS]
    )
    def test_verify_flags_exactly_once(self, tmp_path, text):
        path = tmp_path / "bad-result.json"
        path.write_text(text)
        (violation,) = verify_tree(tmp_path).violations
        assert violation.path == path


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
