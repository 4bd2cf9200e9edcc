"""Schema contracts for ``repro run --out`` artifacts.

``repro run --out DIR`` leaves ``<id>.json`` result files and — with
``--profile`` — a ``metrics.json`` beside them. These tests pin three
contracts:

* every artifact validates against its explicit schema
  (:mod:`repro.obs.schema`);
* the artifact kinds are mutually exclusive — a metrics file can never
  be loaded as an experiment result;
* the profiled span tree actually covers the pipeline stages the
  observability layer promises (graph build, Dijkstra, allocation,
  checkpoint I/O, worker-retry counters) for the headline figures.
"""

from __future__ import annotations

import json

import pytest

from repro.core.runner import run_experiments
from repro.experiments.base import ExperimentResult
from repro.obs import (
    METRICS_SCHEMA,
    RESULT_SCHEMA,
    SchemaError,
    validate,
)
from repro.persistence import load_experiment_result
from tests.conftest import TINY_SCALE


def _fake_experiment(scale=None) -> ExperimentResult:
    """A fast stand-in experiment exercising spans and counters."""
    from repro import obs

    with obs.span("graph_build"):
        with obs.span("kdtree_query"):
            pass
    obs.incr("checkpoint.misses")
    return ExperimentResult(
        experiment_id="fake",
        title="Fake experiment",
        scale_name="tiny",
        tables=["table text"],
        headline={"metric": 1.5},
        data={"series": [1.0, 2.0, float("nan")]},
    )


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One profiled fake-experiment run, shared across the module."""
    out = tmp_path_factory.mktemp("run_out")
    summary = run_experiments(
        ["fake"],
        experiments={"fake": _fake_experiment},
        out_dir=out,
        profile=True,
        echo=lambda _: None,
    )
    assert not summary.failures
    return out


class TestArtifactSchemas:
    def test_result_payload_validates(self, run_dir):
        payload = json.loads((run_dir / "fake.json").read_text())
        validate(payload, RESULT_SCHEMA)
        assert payload["kind"] == "result"

    def test_metrics_payload_validates(self, run_dir):
        payload = json.loads((run_dir / "metrics.json").read_text())
        validate(payload, METRICS_SCHEMA)
        entry = payload["experiments"]["fake"]
        assert entry["ok"] is True
        assert entry["wall_s"] >= 0
        assert "graph_build/kdtree_query" in entry["spans"]
        assert entry["counters"]["checkpoint.misses"] == 1
        # Baseline counters are present even at zero.
        assert entry["counters"]["parallel.worker_retries"] == 0

    def test_pool_counters_read_zero_on_a_clean_run(self, run_dir):
        """All four pool counters are present, so a consumer can tell
        "no fallback" from "not reported"."""
        counters = json.loads((run_dir / "metrics.json").read_text())[
            "experiments"
        ]["fake"]["counters"]
        for name in (
            "parallel.worker_retries",
            "parallel.pool_recreations",
            "parallel.serial_fallbacks",
            "parallel.timeouts",
        ):
            assert counters[name] == 0, name

    def test_metrics_file_rejected_as_result(self, run_dir):
        with pytest.raises(ValueError, match="'metrics'"):
            load_experiment_result(run_dir / "metrics.json")

    def test_result_file_roundtrips(self, run_dir):
        result = load_experiment_result(run_dir / "fake.json")
        assert result.experiment_id == "fake"
        assert result.headline == {"metric": 1.5}

    def test_result_fails_metrics_schema_and_vice_versa(self, run_dir):
        result_payload = json.loads((run_dir / "fake.json").read_text())
        metrics_payload = json.loads((run_dir / "metrics.json").read_text())
        with pytest.raises(SchemaError):
            validate(result_payload, METRICS_SCHEMA)
        with pytest.raises(SchemaError):
            validate(metrics_payload, RESULT_SCHEMA)

    def test_legacy_result_without_kind_still_loads(self, run_dir, tmp_path):
        payload = json.loads((run_dir / "fake.json").read_text())
        del payload["kind"]
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps(payload))
        assert load_experiment_result(legacy).experiment_id == "fake"


class TestSchemaValidator:
    def test_missing_required_key_names_the_path(self):
        with pytest.raises(SchemaError, match=r"\$: missing required key 'kind'"):
            validate({}, METRICS_SCHEMA)

    def test_wrong_type_names_the_nested_path(self):
        payload = {
            "kind": "metrics",
            "schema_version": 1,
            "experiments": {"fig2": "not-an-object"},
        }
        with pytest.raises(SchemaError, match=r"\$\.experiments\.fig2"):
            validate(payload, METRICS_SCHEMA)

    @staticmethod
    def _metrics_with_wall_s(wall_s) -> dict:
        entry = {"wall_s": wall_s, "cpu_s": 0.0, "spans": {}, "counters": {}}
        return {"kind": "metrics", "schema_version": 1, "experiments": {"fig2": entry}}

    def test_bool_is_not_a_number(self):
        with pytest.raises(SchemaError, match="wall_s"):
            validate(self._metrics_with_wall_s(True), METRICS_SCHEMA)

    def test_negative_timing_rejected(self):
        with pytest.raises(SchemaError, match="minimum"):
            validate(self._metrics_with_wall_s(-1.0), METRICS_SCHEMA)


class TestProfiledHeadlineRun:
    """The ISSUE's acceptance criterion, end to end on real experiments."""

    @pytest.fixture(scope="class")
    def profiled_run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("profiled_out")
        resume = tmp_path_factory.mktemp("resume")
        summary = run_experiments(
            ["fig2", "fig4"],
            scale=TINY_SCALE,
            out_dir=out,
            resume_dir=resume,
            profile=True,
            echo=lambda _: None,
        )
        assert not summary.failures
        payload = json.loads((out / "metrics.json").read_text())
        validate(payload, METRICS_SCHEMA)
        return payload["experiments"], resume

    @pytest.fixture(scope="class")
    def metrics(self, profiled_run):
        return profiled_run[0]

    def test_span_tree_covers_pipeline_stages(self, metrics):
        fig2_spans = set(metrics["fig2"]["spans"])
        fig4_spans = set(metrics["fig4"]["spans"])
        # Graph build and Dijkstra, in both experiments.
        assert any("graph_build" in s for s in fig2_spans)
        assert any("dijkstra" in s for s in fig2_spans)
        assert any("graph_build" in s for s in fig4_spans)
        assert any("dijkstra" in s for s in fig4_spans)
        # Allocation is a throughput-side stage.
        assert any("allocation" in s for s in fig4_spans)
        # Checkpoint I/O shows up because the run had a resume dir.
        assert any(s.startswith("checkpoint_io") for s in fig2_spans)

    def test_checkpoint_and_retry_counters_present(self, metrics):
        for eid in ("fig2", "fig4"):
            counters = metrics[eid]["counters"]
            assert "checkpoint.hits" in counters
            assert "checkpoint.misses" in counters
            assert "parallel.worker_retries" in counters
            assert "parallel.pool_recreations" in counters
            # Present (possibly zero) even for fig2, which never routes.
            assert "routing.pair_retries" in counters
            assert "engine.cand_edges" in counters
            assert "engine.frame_bytes" in counters
            assert "engine.bounce_candidates" in counters
            assert "engine.edge_tables" in counters
        # fig2 computed (not resumed) every snapshot of both modes.
        assert metrics["fig2"]["counters"]["checkpoint.misses"] > 0
        assert metrics["fig2"]["counters"]["checkpoint.hits"] == 0
        # ... so it built frames, whose candidate rows the counter sums.
        assert metrics["fig2"]["counters"]["engine.cand_edges"] > 0
        # ... whose array bytes, at least 12 per candidate row, are summed too,
        # and the RTT sweep contracted relays and aircraft into bounce edges.
        fig2 = metrics["fig2"]["counters"]
        assert fig2["engine.frame_bytes"] >= 12 * fig2["engine.cand_edges"]
        assert fig2["engine.bounce_candidates"] > 0
        # BP and hybrid at one instant share a geometry frame.
        assert metrics["fig2"]["counters"]["engine.frame_hits"] > 0
        # Routing takes the source-batched Dijkstra fast path.
        assert metrics["fig4"]["counters"]["routing.batched_dijkstras"] > 0
        # The suite runs strict at every fixture scope, so check_routing
        # reads fig4's edge tables.
        assert metrics["fig4"]["counters"]["engine.edge_tables"] > 0

    def test_non_strict_rtt_sweep_builds_no_edge_table(self, tmp_path):
        """RTT sweeps contract straight from the frame and build no edge table."""
        from repro.context import run_context

        with run_context(strict=False):
            summary = run_experiments(
                ["fig2"],
                scale=TINY_SCALE,
                out_dir=tmp_path,
                profile=True,
                echo=lambda _: None,
            )
        assert not summary.failures
        counters = summary.metrics_by_experiment["fig2"]["counters"]
        assert counters["engine.contraction_misses"] > 0
        assert counters["engine.edge_tables"] == 0

    def test_rerun_with_resume_hits_the_checkpoint(self, profiled_run, tmp_path_factory):
        _, resume = profiled_run
        out = tmp_path_factory.mktemp("profiled_rerun")
        summary = run_experiments(
            ["fig2"],
            scale=TINY_SCALE,
            out_dir=out,
            resume_dir=resume,
            profile=True,
            echo=lambda _: None,
        )
        assert not summary.failures
        counters = summary.metrics_by_experiment["fig2"]["counters"]
        assert counters["checkpoint.hits"] > 0
        assert counters["checkpoint.misses"] == 0
        spans = summary.metrics_by_experiment["fig2"]["spans"]
        assert any(s.startswith("checkpoint_io.load") for s in spans)
