"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from tests.conftest import TINY_SCALE


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_parses_ids_and_scale(self):
        args = build_parser().parse_args(["run", "fig9", "--scale", "small"])
        assert args.ids == ["fig9"]
        assert args.scale == "small"

    def test_rejects_unknown_scale(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig9", "--scale", "gigantic"])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0

    def test_run_parses_resilience_flags(self):
        args = build_parser().parse_args(
            [
                "run",
                "fig9",
                "--fail-fast",
                "--resume",
                "ckpt",
                "--inject-fault",
                "sat:0.05",
                "--inject-fault",
                "relay:0.1,seed:3",
            ]
        )
        assert args.fail_fast
        assert str(args.resume) == "ckpt"
        assert args.inject_fault == ["sat:0.05", "relay:0.1,seed:3"]

    def test_run_parses_profile_flag(self):
        args = build_parser().parse_args(["run", "fig2", "--profile"])
        assert args.profile
        assert not build_parser().parse_args(["run", "fig2"]).profile

    def test_run_parses_integrity_flags(self):
        args = build_parser().parse_args(
            ["run", "fig2", "--strict", "--resume", "ck", "--fresh"]
        )
        assert args.strict and args.fresh
        plain = build_parser().parse_args(["run", "fig2"])
        assert not plain.strict and not plain.fresh

    def test_run_parses_jobs(self):
        assert build_parser().parse_args(["run", "fig2", "--jobs", "2"]).jobs == 2
        assert build_parser().parse_args(["run", "fig2"]).jobs == 1

    @pytest.mark.parametrize("value", ["0", "-1", "two"])
    def test_jobs_below_one_exits_2(self, capsys, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig9", "--jobs", value])
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_verify_parses_directory(self):
        args = build_parser().parse_args(["verify", "artifacts"])
        assert args.command == "verify"
        assert str(args.directory) == "artifacts"

    def test_fresh_without_resume_exits_2(self, capsys):
        assert main(["run", "fig2", "--fresh"]) == 2
        assert "--resume" in capsys.readouterr().err


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "fig2" in output
        assert "disconnected" in output

    def test_info(self, capsys):
        assert main(["info"]) == 0
        output = capsys.readouterr().out
        assert "starlink" in output
        assert "1584" in output
        assert "full" in output

    def test_scenario_summary(self, capsys):
        assert main(["scenario", "--scale", "small"]) == 0
        output = capsys.readouterr().out
        assert "satellites" in output
        assert "1584" in output

    def test_run_unknown_id(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_run_fig9_with_output_dir(self, capsys, tmp_path, monkeypatch):
        # fig9 is pure geometry: cheap enough for a unit test.
        assert main(["run", "fig9", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "fig9.txt").exists()
        assert "GSO" in capsys.readouterr().out

    def test_run_out_dir_also_writes_json(self, capsys, tmp_path):
        from repro.persistence import load_experiment_result

        assert main(["run", "fig9", "--out", str(tmp_path)]) == 0
        loaded = load_experiment_result(tmp_path / "fig9.json")
        assert loaded.experiment_id == "fig9"
        assert loaded.tables

    def test_run_bad_fault_spec_exits_2(self, capsys):
        assert main(["run", "fig9", "--inject-fault", "warp_core:0.5"]) == 2
        assert "warp_core" in capsys.readouterr().err


class TestFaultTolerantRun:
    @pytest.fixture()
    def registry_with_bomb(self, monkeypatch):
        from repro.experiments.base import ExperimentResult, _REGISTRY

        def bomb(scale=None):
            raise RuntimeError("synthetic experiment failure")

        monkeypatch.setitem(_REGISTRY, "zz_bomb", bomb)
        return _REGISTRY

    def test_keep_going_runs_remaining_and_exits_nonzero(
        self, capsys, registry_with_bomb
    ):
        # The failing experiment comes first; fig9 must still run.
        assert main(["run", "zz_bomb", "fig9"]) == 1
        output = capsys.readouterr().out
        assert "GSO" in output  # fig9 ran despite the earlier failure
        assert "Run summary" in output
        assert "zz_bomb" in output and "FAILED" in output
        assert "synthetic experiment failure" in output

    def test_fail_fast_stops_the_batch(self, capsys, registry_with_bomb):
        assert main(["run", "zz_bomb", "fig9", "--fail-fast"]) == 1
        output = capsys.readouterr().out
        assert "GSO" not in output  # fig9 never ran
        assert "FAILED" in output


class TestReportCommand:
    """``repro report DIR`` renders what ``repro run --out DIR`` wrote."""

    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        # fig8 and fig9 are cheap; --profile adds a metrics.json that the
        # report must skip.
        out = tmp_path_factory.mktemp("run")
        argv = ["run", "fig9", "fig8", "--scale", "small", "--out", str(out), "--profile"]
        assert main(argv) == 0
        assert (out / "metrics.json").exists()
        return out

    def test_report_writes_markdown(self, capsys, run_dir, tmp_path):
        out = tmp_path / "report.md"
        assert main(["report", str(run_dir), "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("# Reproduction report")
        assert "## fig9" in text
        assert "GSO" in text
        # Sections keep SECTION_ORDER and name their source file.
        assert text.index("## fig8") < text.index("## fig9")
        assert "from `fig8.json`" in text and "from `fig9.json`" in text

    def test_report_unknown_id(self, capsys, tmp_path):
        # The argument is a directory; "fig99" holds no result to render.
        assert main(["report", "fig99", "--out", str(tmp_path / "r.md")]) == 1
        assert "fig99" in capsys.readouterr().err
        assert not (tmp_path / "r.md").exists()

    def test_report_runs_no_experiment(self, capsys, run_dir, tmp_path, monkeypatch):
        from repro.experiments.base import _REGISTRY

        def bomb(scale=None):
            raise RuntimeError("report must not run experiments")

        for eid in list(_REGISTRY):
            monkeypatch.setitem(_REGISTRY, eid, bomb)
        out = tmp_path / "report.md"
        assert main(["report", str(run_dir), "--out", str(out)]) == 0
        assert "## fig9" in out.read_text()

    def test_every_table_appears_verbatim(self, run_dir, tmp_path):
        import json

        out = tmp_path / "report.md"
        assert main(["report", str(run_dir), "--out", str(out)]) == 0
        text = out.read_text()
        tables = [
            table
            for name in ("fig8.json", "fig9.json")
            for table in json.loads((run_dir / name).read_text())["tables"]
        ]
        assert tables
        for table in tables:
            assert table in text

    def test_profile_metrics_skipped(self, run_dir, tmp_path):
        out = tmp_path / "report.md"
        assert main(["report", str(run_dir), "--out", str(out)]) == 0
        text = out.read_text()
        assert "metrics.json" not in text
        assert [line for line in text.splitlines() if line.startswith("## ")] == [
            "## Contents",
            "## fig8",
            "## fig9",
        ]

    def test_directory_without_results_fails(self, capsys, run_dir, tmp_path):
        import shutil

        shutil.copy(run_dir / "metrics.json", tmp_path / "metrics.json")
        out = tmp_path / "report.md"
        assert main(["report", str(tmp_path), "--out", str(out)]) == 1
        assert "no experiment result" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("damage", ["not json {", '{"kind": "result"}'])
    def test_malformed_result_names_file(self, capsys, run_dir, tmp_path, damage):
        import shutil

        for name in ("fig9.json", "metrics.json"):
            shutil.copy(run_dir / name, tmp_path / name)
        (tmp_path / "fig8.json").write_text(damage)
        out = tmp_path / "report.md"
        assert main(["report", str(tmp_path), "--out", str(out)]) == 1
        assert "fig8.json" in capsys.readouterr().err
        assert not out.exists()
