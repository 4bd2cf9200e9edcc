"""Tests for the parent-vs-change benchmark gate (``scripts/perf_gate.py``).

Each way CI's perf gate can pass or fail, on synthetic perfbench result
lines judged against the repository's own ``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SCRIPT = ROOT / "scripts" / "perf_gate.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BASE = {m["name"]: 1.0 + i for i, m in enumerate(BENCHMARK["end_to_end"])}


@pytest.fixture(scope="module")
def gate():
    """The script loaded as a module (it has no package home)."""
    spec = importlib.util.spec_from_file_location("perf_gate", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(failed=0) -> list[dict]:
    """Ten correct runs of 36 evaluations; every metric spreads by ±0.5 %."""
    return [
        {
            "correct": True,
            "attempted": 36,
            "failed": failed,
            "metrics": {
                name: {"value": base * (1.0 + (i - 5) / 1000), "unit": "x"}
                for name, base in BASE.items()
            },
        }
        for i in range(10)
    ]


def _scaled(runs: list[dict], name: str, factor: float) -> list[dict]:
    out = json.loads(json.dumps(runs))
    for run in out:
        run["metrics"][name]["value"] *= factor
    return out


class TestVerdicts:
    def test_identical_runs_pass(self, gate):
        # An equal, non-zero failed share is no regression either.
        passed, table = gate.judge(BENCHMARK, _runs(failed=1), _runs(failed=1))
        assert passed
        assert table.endswith("**PASS**")
        assert "regressed" not in table and "unresolved" not in table

    @pytest.mark.parametrize(
        "name, factor", [("snapshot_p50_s", 1.3), ("snapshots_per_s", 0.7)]
    )
    def test_thirty_percent_worse_fails(self, gate, name, factor):
        parent = _runs()
        passed, table = gate.judge(BENCHMARK, parent, _scaled(parent, name, factor))
        assert not passed
        assert f"**FAIL**: {name} is 30.0% worse" in table

    def test_improvement_passes(self, gate):
        parent = _runs()
        change = _scaled(_scaled(parent, "snapshots_per_s", 1.5), "setup_s", 0.5)
        assert gate.judge(BENCHMARK, parent, change)[0]

    def test_parent_spread_wider_than_bound_is_unresolved(self, gate):
        parent = _runs()
        for i, run in enumerate(parent):
            run["metrics"]["setup_s"]["value"] *= 1.0 + 0.1 * i
        change = _scaled(parent, "setup_s", 1.5)
        passed, table = gate.judge(BENCHMARK, parent, change)
        assert passed
        (row,) = [line for line in table.splitlines() if line.startswith("| setup_s ")]
        assert row.endswith("| unresolved |")

    def test_incorrect_change_run_fails(self, gate):
        change = _runs()
        change[3]["correct"] = False
        passed, table = gate.judge(BENCHMARK, _runs(), change)
        assert not passed
        assert "1 of 10 change runs are not correct" in table

    def test_higher_failed_share_fails(self, gate):
        passed, table = gate.judge(BENCHMARK, _runs(failed=1), _runs(failed=2))
        assert not passed
        assert "failed share rose from 10/360 to 20/360" in table


class TestInputs:
    def test_missing_metric_raises(self, gate):
        change = _runs()
        del change[4]["metrics"]["peak_rss_mb"]
        with pytest.raises(KeyError, match="peak_rss_mb"):
            gate.judge(BENCHMARK, _runs(), change)

    def test_command_line_reads_jsonl_and_sets_exit_code(self, gate, tmp_path, capsys):
        parent_path, change_path = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
        parent = _runs()
        parent_path.write_text("".join(json.dumps(run) + "\n" for run in parent))
        args = [str(ROOT / "BENCHMARK.json"), str(parent_path), str(change_path)]

        change_path.write_text("".join(json.dumps(run) + "\n" for run in parent))
        assert gate.main(args) == 0
        assert "| metric |" in capsys.readouterr().out

        slow = _scaled(parent, "snapshots_per_s", 0.5)
        change_path.write_text("".join(json.dumps(run) + "\n" for run in slow))
        assert gate.main(args) == 1

    @pytest.mark.parametrize(
        "change_text, message",
        [
            ("{}\n", "1 run(s); the gate needs at least 2 per side"),
            ("{}\n{}\n[run died]\n", ":3: not a perfbench result object"),
            ('{}\n{"correct": tr\n', ":2: not a perfbench result object"),
        ],
        ids=["one_run", "non_json_line", "truncated_object"],
    )
    def test_bad_result_file_is_a_usage_error(
        self, gate, tmp_path, capsys, change_text, message
    ):
        parent_path, change_path = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
        parent_path.write_text("".join(json.dumps(run) + "\n" for run in _runs()))
        change_path.write_text(change_text)
        args = [str(ROOT / "BENCHMARK.json"), str(parent_path), str(change_path)]
        assert gate.main(args) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{change_path}" in err and message in err
