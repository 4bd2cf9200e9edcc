#!/usr/bin/env python3
"""Run every paper experiment and write the rendered outputs.

This is the one-command reproduction driver: it hands the registered
experiments (Fig. 2-11, the disconnected-satellite statistic and the
extensions) to the batch runner at the environment-selected scale, which
writes each experiment's rendered table (``<id>.txt``) and result JSON
(``<id>.json``) under ``results/`` next to this script. A failing
experiment is recorded in the summary and the rest still run.

Run:  python examples/reproduce_paper.py [experiment-id ...]
      REPRO_FULL_SCALE=1 python examples/reproduce_paper.py   # paper scale
Then: python -m repro.cli report examples/results --out REPORT.md
"""

import sys
from pathlib import Path

from repro.core.runner import UnknownExperimentError, run_experiments

RESULTS_DIR = Path(__file__).parent / "results"


def main(argv: list[str]) -> int:
    try:
        summary = run_experiments(argv[1:] or ["all"], out_dir=RESULTS_DIR)
    except UnknownExperimentError as exc:
        print(exc)
        return 2
    print(summary.format_summary())
    print(f"outputs written to {RESULTS_DIR}/")
    return summary.exit_code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
