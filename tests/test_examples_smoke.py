"""Smoke tests: the example scripts must run end-to-end.

Only the two cheapest examples run in the default suite (the others
exercise the same APIs at larger sizes); each runs in a subprocess so an
example crash cannot corrupt test state.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"


def _run_example(name: str, args: list[str] | None = None, timeout: float = 240.0):
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name), *(args or [])],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestExampleScripts:
    def test_all_examples_exist_and_have_docstrings(self):
        scripts = sorted(EXAMPLES_DIR.glob("*.py"))
        assert len(scripts) >= 3  # Deliverable (b): at least three.
        for script in scripts:
            source = script.read_text()
            assert source.lstrip().startswith(('"""', "#!")), script.name
            assert '"""' in source, f"{script.name} lacks a docstring"

    def test_quickstart_runs(self):
        result = _run_example("quickstart.py")
        assert result.returncode == 0, result.stderr[-2000:]
        assert "Minimum RTT" in result.stdout
        assert "median variation increase" in result.stdout

    def test_terminal_experience_runs_with_argument(self):
        result = _run_example("terminal_experience.py", ["Tokyo"])
        assert result.returncode == 0, result.stderr[-2000:]
        assert "Terminal at Tokyo" in result.stdout
        assert "Handover behaviour" in result.stdout
