"""Tests for the fault-tolerant experiment runner."""

import numpy as np
import pytest

from repro.context import current, run_context
from repro.core.runner import (
    ExperimentFailure,
    ExperimentOutcome,
    RunSummary,
    UnknownExperimentError,
    run_experiments,
)
from repro.experiments.base import ExperimentResult
from repro.faults import FaultSpec
from repro.persistence import load_experiment_result


def _silent(_: str) -> None:
    pass


def _result(eid: str) -> ExperimentResult:
    return ExperimentResult(
        experiment_id=eid,
        title=f"Title of {eid}",
        scale_name="tiny",
        tables=[f"table for {eid}"],
        headline={"metric": 1.0},
        data={"values": np.array([1.0, 2.0])},
    )


def _good(scale=None):
    return _result("good")


def _boom(scale=None):
    raise RuntimeError("kaboom")


class TestKeepGoing:
    def test_failure_does_not_stop_the_batch(self):
        summary = run_experiments(
            ["all"],
            experiments={"a_boom": _boom, "b_good": _good},
            echo=_silent,
        )
        assert [o.experiment_id for o in summary.outcomes] == ["a_boom", "b_good"]
        assert [o.ok for o in summary.outcomes] == [False, True]
        assert summary.exit_code == 1

    def test_fail_fast_stops_at_first_failure(self):
        summary = run_experiments(
            ["all"],
            experiments={"a_boom": _boom, "b_good": _good},
            keep_going=False,
            echo=_silent,
        )
        assert [o.experiment_id for o in summary.outcomes] == ["a_boom"]
        assert summary.exit_code == 1

    def test_all_ok_exits_zero(self):
        summary = run_experiments(
            ["all"], experiments={"b_good": _good}, echo=_silent
        )
        assert summary.exit_code == 0
        assert summary.failures == []

    def test_failure_record_is_structured(self):
        summary = run_experiments(
            ["a_boom"], experiments={"a_boom": _boom}, echo=_silent
        )
        (failure,) = summary.failures
        assert isinstance(failure, ExperimentFailure)
        assert failure.experiment_id == "a_boom"
        assert failure.error_type == "RuntimeError"
        assert failure.message == "kaboom"
        assert "kaboom" in failure.traceback

    def test_summary_mentions_failures_and_timings(self):
        summary = run_experiments(
            ["all"],
            experiments={"a_boom": _boom, "b_good": _good},
            echo=_silent,
        )
        text = summary.format_summary()
        assert "1 ok, 1 failed" in text
        assert "a_boom" in text and "FAILED" in text
        assert "RuntimeError: kaboom" in text
        assert "Title of good" in text
        assert all(outcome.duration_s >= 0 for outcome in summary.outcomes)


class TestSelection:
    def test_unknown_id_raises_before_running(self):
        calls = []

        def tracking(scale=None):
            calls.append(1)
            return _result("x")

        with pytest.raises(UnknownExperimentError, match="nope"):
            run_experiments(
                ["x", "nope"], experiments={"x": tracking}, echo=_silent
            )
        assert calls == []

    def test_explicit_order_preserved(self):
        order = []

        def make(eid):
            def runner(scale=None):
                order.append(eid)
                return _result(eid)

            return runner

        run_experiments(
            ["b", "a"],
            experiments={"a": make("a"), "b": make("b")},
            echo=_silent,
        )
        assert order == ["b", "a"]

    def test_one_shot_iterable_runs_every_id(self):
        summary = run_experiments(
            iter(["good"]), experiments={"good": _good}, echo=_silent
        )
        assert [o.experiment_id for o in summary.outcomes] == ["good"]
        assert summary.exit_code == 0


class TestOutputs:
    def test_out_dir_gets_text_and_json(self, tmp_path):
        run_experiments(
            ["good"], experiments={"good": _good}, out_dir=tmp_path, echo=_silent
        )
        assert (tmp_path / "good.txt").read_text().startswith("=== good")
        loaded = load_experiment_result(tmp_path / "good.json")
        assert loaded.experiment_id == "good"
        assert loaded.data["values"] == [1.0, 2.0]

    def test_failure_recorded_and_the_rest_written(self, tmp_path):
        summary = run_experiments(
            ["a_boom", "b_good"],
            experiments={"a_boom": _boom, "b_good": _good},
            out_dir=tmp_path,
            echo=_silent,
        )
        assert summary.exit_code == 1
        assert [f.experiment_id for f in summary.failures] == ["a_boom"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b_good.json", "b_good.txt"]

    def test_failed_experiment_writes_nothing(self, tmp_path):
        run_experiments(
            ["a_boom"], experiments={"a_boom": _boom}, out_dir=tmp_path, echo=_silent
        )
        assert list(tmp_path.iterdir()) == []


class TestAmbientContexts:
    def test_resume_and_fault_contexts_active_during_run(self, tmp_path):
        seen = {}

        def probe(scale=None):
            seen["root"] = current().checkpoint_root
            seen["spec"] = current().faults
            return _result("probe")

        spec = FaultSpec(sat=0.25, seed=3)
        run_experiments(
            ["probe"],
            experiments={"probe": probe},
            resume_dir=tmp_path / "ck",
            fault_spec=spec,
            echo=_silent,
        )
        assert seen["root"] == tmp_path / "ck"
        assert seen["spec"] == spec
        assert current().checkpoint_root is None
        assert current().faults is None

    def test_contexts_restored_even_after_failure(self, tmp_path):
        run_experiments(
            ["a_boom"],
            experiments={"a_boom": _boom},
            resume_dir=tmp_path / "ck",
            fault_spec=FaultSpec(sat=0.1),
            echo=_silent,
        )
        assert current().checkpoint_root is None
        assert current().faults is None


class TestRunSummary:
    def test_empty_summary_exits_zero(self):
        assert RunSummary().exit_code == 0

    def test_outcome_ok_property(self):
        ok = ExperimentOutcome(experiment_id="x", duration_s=0.1, result=_result("x"))
        failed = ExperimentOutcome(
            experiment_id="y",
            duration_s=0.1,
            failure=ExperimentFailure("y", "E", "m", "tb"),
        )
        assert ok.ok and not failed.ok


class TestIntegrityIntegration:
    def test_strict_context_active_during_run(self):
        observed = {}

        def probe(scale=None):
            observed["strict"] = current().strict
            return _result("probe")

        with run_context(strict=False):  # suite default is strict; isolate
            run_experiments(
                ["probe"], experiments={"probe": probe}, strict=True,
                echo=_silent,
            )
            assert observed["strict"] is True
            run_experiments(
                ["probe"], experiments={"probe": probe}, echo=_silent
            )
            assert observed["strict"] is False

    def test_summary_reports_quarantines(self, tmp_path):
        from repro.integrity.quarantine import quarantine_file

        def quarantiner(scale=None):
            victim = tmp_path / "bad.bin"
            victim.write_bytes(b"x")
            quarantine_file(victim, "test damage")
            return _result("quarantiner")

        summary = run_experiments(
            ["quarantiner"], experiments={"quarantiner": quarantiner},
            echo=_silent,
        )
        assert summary.integrity.get("quarantined") == 1
        assert "quarantined=1" in summary.format_summary()

    def test_clean_run_has_no_integrity_line(self):
        summary = run_experiments(
            ["good"], experiments={"good": _good}, echo=_silent
        )
        assert "Integrity:" not in summary.format_summary()

    def test_fresh_restarts_mismatched_checkpoint(self, tmp_path, tiny_scenario):
        from repro.core.checkpoint import checkpoint_for
        from repro.core.pipeline import compute_rtt_series_multi
        from repro.network.graph import ConnectivityMode

        # Poison the resume dir: a checkpoint fingerprint-colliding dir
        # holding a manifest for a different pair count.
        mode = ConnectivityMode.BP_ONLY

        def sweep(scale=None):
            compute_rtt_series_multi(tiny_scenario, [mode])[mode]
            return _result("sweep")

        run_experiments(
            ["sweep"], experiments={"sweep": sweep}, resume_dir=tmp_path,
            echo=_silent,
        )
        ck_dir = next(p for p in tmp_path.iterdir() if p.is_dir())
        manifest = ck_dir / "manifest.json"
        manifest.write_text(manifest.read_text().replace(
            f'"num_pairs": {len(tiny_scenario.pairs)}', '"num_pairs": 9999'
        ))

        # Without --fresh: the experiment fails with the mismatch.
        summary = run_experiments(
            ["sweep"], experiments={"sweep": sweep}, resume_dir=tmp_path,
            echo=_silent,
        )
        assert summary.failures
        assert summary.failures[0].error_type == "CheckpointMismatchError"
        assert "--fresh" in summary.failures[0].message

        # With fresh=True: quarantined, restarted, sweep completes.
        summary = run_experiments(
            ["sweep"], experiments={"sweep": sweep}, resume_dir=tmp_path,
            fresh=True, echo=_silent,
        )
        assert not summary.failures
        ck = checkpoint_for(
            tmp_path,
            tiny_scenario,
            mode,
            label="",
            times_s=tiny_scenario.times_s,
            row_len=len(tiny_scenario.pairs),
        )
        assert ck.is_complete()
        assert (tmp_path / "quarantine").is_dir()
