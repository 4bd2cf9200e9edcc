"""Benchmark harness configuration.

Each benchmark regenerates one paper figure/table: it runs the
corresponding experiment (timed by pytest-benchmark), prints the same
rows/series the paper plots, persists the rendered output under
``benchmarks/output/``, and asserts the paper's qualitative shape.

Scale: by default each experiment runs at its own reduced scale and
finishes in minutes; ``REPRO_FULL_SCALE=1`` makes the harness pass the
paper's full setup (1,000 cities, 5,000 pairs, 0.5-degree relays, 96
snapshots) to every experiment — expect hours. The variable is this
harness's switch; the library itself reads no scale from the environment.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.core.scenario import ScenarioScale

FULL_SCALE = os.environ.get("REPRO_FULL_SCALE", "0") not in ("", "0", "false", "no")
OUTPUT_DIR = Path(__file__).parent / "output"


@pytest.fixture()
def record_result():
    """Persist an experiment's rendered output and echo it to stdout."""

    def _record(result):
        OUTPUT_DIR.mkdir(exist_ok=True)
        text = result.render()
        path = OUTPUT_DIR / f"{result.experiment_id}.txt"
        path.write_text(text + "\n")
        print()
        print(text)
        return result

    return _record


def run_once(benchmark, experiment, scale=None):
    """Run an expensive experiment exactly once under the benchmark timer.

    Without ``scale`` the experiment runs at the paper's full setup under
    ``REPRO_FULL_SCALE``, else at its own default scale.
    """
    if scale is None and FULL_SCALE:
        scale = ScenarioScale.full()
    args = () if scale is None else (scale,)
    return benchmark.pedantic(experiment, args=args, rounds=1, iterations=1)


@pytest.fixture(scope="session")
def full_scale() -> bool:
    return FULL_SCALE
