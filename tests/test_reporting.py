"""Unit tests for the plain-text reporting helpers."""

import numpy as np

from repro.reporting.tables import format_cdf_table, format_summary, format_table


class TestFormatTable:
    def test_basic_layout(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["x", 3.0]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert len(lines) == 5

    def test_columns_aligned(self):
        text = format_table(["col", "x"], [["aaaa", 1], ["b", 22]])
        lines = text.splitlines()
        # All rows same width per column: the x column starts at the same
        # index everywhere.
        idx = lines[0].index("x")
        assert lines[2][idx - 1] == " "

    def test_float_formatting(self):
        text = format_table(["v"], [[1234.5678], [1e-9], [1e7], [float("inf")]])
        assert "1234.57" in text
        assert "1.000e-09" in text
        assert "1.000e+07" in text
        assert "inf" in text

    def test_empty_rows(self):
        text = format_table(["a"], [])
        assert "a" in text


class TestFormatCdfTable:
    def test_percentile_rows(self):
        text = format_cdf_table(
            "cdf", {"X": np.arange(100.0), "Y": np.arange(100.0) * 2}
        )
        assert "p50" in text
        assert "X" in text and "Y" in text

    def test_nan_series_handled(self):
        text = format_cdf_table("cdf", {"X": np.array([np.nan, np.inf])})
        assert "nan" in text

    def test_values_correct(self):
        text = format_cdf_table("c", {"X": np.arange(101.0)}, percentiles=(50,))
        assert "50.00" in text


class TestFormatSummary:
    def test_keys_and_values(self):
        text = format_summary("S", {"alpha": 1.5, "beta": "x"})
        assert text.splitlines()[0] == "S"
        assert "alpha" in text and "1.50" in text
        assert "beta" in text and "x" in text

    def test_empty_mapping(self):
        assert format_summary("S", {}) == "S"


class TestRenderReport:
    def test_render_orders_and_includes_tables(self):
        from repro.experiments.base import ExperimentResult
        from repro.reporting.report import render_report

        results = {
            "fig3": ExperimentResult(
                experiment_id="fig3", title="Three", scale_name="s",
                tables=["TABLE3"], headline={"h": 3},
            ),
            "fig2": ExperimentResult(
                experiment_id="fig2", title="Two", scale_name="s",
                tables=["TABLE2"],
            ),
        }
        text = render_report(results, {"fig2": "fig2.json"})
        # fig2 before fig3 per SECTION_ORDER.
        assert text.index("## fig2") < text.index("## fig3")
        assert "TABLE2" in text and "TABLE3" in text
        assert "from `fig2.json`" in text
        assert "h: **3**" in text

    def test_unknown_ids_appended(self):
        from repro.experiments.base import ExperimentResult
        from repro.reporting.report import render_report

        results = {
            "custom": ExperimentResult(
                experiment_id="custom", title="X", scale_name="s", tables=["T"]
            )
        }
        assert "## custom" in render_report(results)


class TestGenerateReport:
    def test_each_file_parsed_once(self, tmp_path, monkeypatch):
        import json
        from collections import Counter
        from pathlib import Path

        from repro.experiments.base import ExperimentResult
        from repro.persistence import save_experiment_result
        from repro.reporting.report import generate_report

        for eid in ("fig2", "fig9"):
            result = ExperimentResult(
                experiment_id=eid, title=eid, scale_name="s", tables=["T"]
            )
            save_experiment_result(result, tmp_path / f"{eid}.json")
        (tmp_path / "metrics.json").write_text(json.dumps({"kind": "metrics"}))
        reads = Counter()
        read_text = Path.read_text

        def counting_read_text(self, *args, **kwargs):
            reads[self.name] += 1
            return read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting_read_text)
        report = generate_report(tmp_path, tmp_path / "REPORT.md")
        monkeypatch.undo()
        assert reads == {"fig2.json": 1, "fig9.json": 1, "metrics.json": 1}
        assert "## fig2" in report.read_text() and "## fig9" in report.read_text()
