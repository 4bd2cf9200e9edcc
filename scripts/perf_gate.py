"""Parent-vs-change benchmark gate over perfbench result lines.

Usage, from the root of a checkout::

    python3 scripts/perf_gate.py BENCHMARK.json parent.jsonl change.jsonl

Each ``.jsonl`` file holds one perfbench result object per line: the
last standard-output line of ``perfbench/run.py --trace 0``, one line
per run of the same workload and seed. The gate reads every end-to-end
metric's ``better`` direction and ``bound`` from ``BENCHMARK.json``,
prints a Markdown table, and exits 1 when

* a change run is not ``correct: true``;
* the change's share of failed evaluations is higher than the parent's;
* a change median is worse than the parent median by more than the
  metric's bound, taken relative to the parent median.

A metric whose parent runs spread wider than its bound (quartile
distance over median) cannot be resolved by these runs. It is printed
as ``unresolved`` and does not fail the gate. The parent and change runs
should alternate on one host, so that host drift hits both sides alike.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def read_runs(path) -> list[dict]:
    """The result objects in ``path``, one per non-empty line."""
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def _values(runs: list[dict], name: str) -> list[float]:
    """``name``'s value in every run; a run without it raises ``KeyError``."""
    return [float(run["metrics"][name]["value"]) for run in runs]


def _quartiles(values: list[float]) -> list[float]:
    """``[q1, median, q3]``, interpolated between order statistics."""
    return statistics.quantiles(values, n=4, method="inclusive")


def _failed_share(runs: list[dict]) -> tuple[int, int]:
    return sum(run["failed"] for run in runs), sum(run["attempted"] for run in runs)


def judge(benchmark: dict, parent: list[dict], change: list[dict]) -> tuple[bool, str]:
    """``(passed, markdown)`` for one workload's parent and change runs."""
    problems = []
    incorrect = sum(run["correct"] is not True for run in change)
    if incorrect:
        problems.append(f"{incorrect} of {len(change)} change runs are not correct")
    parent_failed, parent_attempted = _failed_share(parent)
    change_failed, change_attempted = _failed_share(change)
    if change_failed * parent_attempted > parent_failed * change_attempted:
        problems.append(
            f"failed share rose from {parent_failed}/{parent_attempted} "
            f"to {change_failed}/{change_attempted}"
        )

    rows = []
    for metric in benchmark["end_to_end"]:
        name, bound = metric["name"], float(metric["bound"])
        p_q1, p_med, p_q3 = _quartiles(_values(parent, name))
        c_q1, c_med, c_q3 = _quartiles(_values(change, name))
        delta = c_med / p_med - 1.0
        worse_by = delta if metric["better"] == "lower" else -delta
        spread = (p_q3 - p_q1) / p_med
        if spread > bound:
            verdict = "unresolved"
        elif worse_by > bound:
            verdict = "**regressed**"
            problems.append(f"{name} is {worse_by:.1%} worse (bound {bound:.0%})")
        else:
            verdict = "ok"
        rows.append(
            f"| {name} | {metric['unit']} | {metric['better']} "
            f"| {p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}] "
            f"| {c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}] "
            f"| {delta:+.1%} | {spread:.1%} | {bound:.0%} | {verdict} |"
        )

    lines = [
        f"{len(parent)} parent and {len(change)} change runs; failed evaluations: "
        f"parent {parent_failed}/{parent_attempted}, change {change_failed}/{change_attempted}",
        "",
        "| metric | unit | better | parent median [quartiles] "
        "| change median [quartiles] | change | parent spread | bound | verdict |",
        "|---|---|---|---:|---:|---:|---:|---:|---|",
        *rows,
        "",
    ]
    lines += [f"**FAIL**: {problem}" for problem in problems] or ["**PASS**"]
    return not problems, "\n".join(lines)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    benchmark_path, parent_path, change_path = args
    benchmark = json.loads(Path(benchmark_path).read_text())
    passed, table = judge(benchmark, read_runs(parent_path), read_runs(change_path))
    print(table)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
