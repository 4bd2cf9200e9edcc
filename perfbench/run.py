"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload rtt-day --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with the program
untouched; ``--trace 1`` is a separate run that alternates untraced and
traced passes over the workload's snapshot grid and reports per-layer
metrics (see ``layers.py``). Either way the outputs are checked after
the sweep (``checks.py``), a human-readable report goes to standard
output, a JSON record with provenance goes to ``.perfbench/records/``
(traced spans to ``.perfbench/traces/``), and the last line of standard
output is the result object.

The program is imported from ``src/`` of the checkout; its caches and
temporary files stay under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import NamedTuple

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
#: Set-up is timed in this many fresh processes (the run's own included);
#: the median is reported. In-process memo caches make a second set-up
#: in one process cheaper than the first, so each sample needs a new one.
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 150
#: A run makes ``round(seconds / PASS_SECONDS)`` whole passes over the
#: snapshot grid (3 at 20 s); workloads are sized so a pass takes 5.5-8.5 s.
#: The count is fixed rather than timed so that every run of a workload
#: has the same sample count and tail percentile: passing a deadline
#: instead flipped runs between 3 and 4 passes as host speed drifted.
PASS_SECONDS = 20.0 / 3.0
#: Sweep times are CPU time of this process: the sweep is serial, and on
#: a shared virtual host hypervisor steal moves wall-clock times by 10-20 %
#: between runs, which CPU time leaves out. Set-up uses multithreaded
#: BLAS, so it is timed by wall clock. See the README.
clock = time.process_time
END_TO_END_UNITS = {
    "setup_s": "s",
    "snapshots_per_s": "1/s",
    "snapshot_p50_s": "s",
    "snapshot_tail_s": "s",
    "peak_rss_mb": "MB",
}


class Pass(NamedTuple):
    """One timed pass over the workload's snapshot grid."""

    traced: bool
    outputs: object
    latencies: list
    busy_s: float
    wall_s: float


def _use_checkout_program():
    """Import the program from this checkout and keep its files here."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {SRC / 'repro'}")
    for sub in ("cache", "tmp", "records", "traces"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = str(WORK / "cache")
    os.environ["TMPDIR"] = str(WORK / "tmp")
    tempfile.tempdir = None
    sys.path.insert(0, str(SRC))
    import program

    if not Path(program.compute_rtt_series_multi.__code__.co_filename).is_relative_to(SRC):
        raise SystemExit("perfbench: the program was not imported from this checkout")
    return program


def _timed_setup(program, workload, seed):
    start = time.perf_counter()
    scenario = program.build_scenario(workload, seed)
    return scenario, time.perf_counter() - start


def _probe_setup(workload, seed) -> float:
    """Set-up time measured in a fresh interpreter (imports excluded)."""
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", workload.name,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _no_span(name):
    return contextlib.nullcontext()


def _run_pass(program, workload, scenario, pass_no, span=_no_span):
    """One pass over the snapshot grid: ``(outputs, latencies, busy_s)``.

    RTT workloads: one sweep call with a fresh checkpoint root; outputs
    is ``{mode: (pairs, snapshots)}`` or ``None`` if the sweep raised.
    Throughput workloads: one call per instant; outputs is a list with
    ``None`` for each call that raised.
    """
    if workload.kind == "rtt":
        root = WORK / "tmp" / f"checkpoints-{os.getpid()}-{pass_no}"
        marks = []
        start = clock()
        try:
            with span("sweep"):
                outputs = program.rtt_sweep(
                    scenario, root, lambda done, total: marks.append(clock())
                )
        except Exception:
            traceback.print_exc()
            outputs, marks = None, [start]
        busy = clock() - start
        shutil.rmtree(root, ignore_errors=True)
        latencies = [b - a for a, b in zip([start] + marks, marks)]
        return outputs, latencies, busy

    outputs, latencies = [], []
    start = clock()
    for time_s in workload.times_s():
        began = clock()
        try:
            with span("sweep"):
                outputs.append(program.throughput_eval(scenario, time_s))
            latencies.append(clock() - began)
        except Exception:
            traceback.print_exc()
            outputs.append(None)
    return outputs, latencies, clock() - start


def _measure(program, workload, scenario, seconds, recorder=None):
    """Whole passes over the snapshot grid; see :data:`PASS_SECONDS`.

    With a ``recorder`` (traced runs) untraced and traced passes
    alternate, at least one of each; the untraced ones give the tracing
    overhead. Returns the passes and the program's obs counters of the
    traced ones.
    """
    from repro.obs import MetricsRegistry, observe
    from spans import instrumented

    registry = MetricsRegistry()
    count = max(1 if recorder is None else 2, round(seconds / PASS_SECONDS))
    passes = []
    for number in range(count):
        traced = recorder is not None and number % 2 == 1
        began = time.perf_counter()
        if traced:
            with instrumented(recorder), observe(registry):
                result = _run_pass(program, workload, scenario, number, recorder.span)
        else:
            result = _run_pass(program, workload, scenario, number)
        passes.append(Pass(traced, *result, time.perf_counter() - began))
    return passes, registry.snapshot()["counters"]


def _tail(latencies):
    """Highest order statistic with at least ten samples beyond it.

    Runs too short to have such a statistic above the median report the
    maximum (percentile 100).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _check(program, workload, scenario, seed, passes):
    from checks import check_rtt, check_tput, load_reference

    reference = load_reference(workload, seed)
    outputs = [p.outputs for p in passes]
    if workload.kind == "rtt":
        return check_rtt(program, workload, scenario, outputs, seed, reference)
    return check_tput(outputs, reference)


def _provenance(workload, seed, seconds, trace) -> dict:
    import numpy
    import scipy

    sources = sorted((SRC / "repro").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10,
            cwd=ROOT, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        git_rev = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_rev = None
    cpu_model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "git_rev": git_rev,
        "src_sha256": digest.hexdigest(),
        "src_loc": lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor(),
        "platform": platform.platform(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workload": workload.params(),
    }


def _write_json(directory: str, name: str, payload) -> Path:
    path = WORK / directory / name
    path.write_text(json.dumps(payload, indent=1, default=float))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    program = _use_checkout_program()

    if args.setup_probe:
        print(json.dumps({"setup_s": _timed_setup(program, workload, args.seed)[1]}))
        return 0

    recorder = None
    if args.trace:
        from spans import Recorder, instrumented

        recorder = Recorder()
        with instrumented(recorder), recorder.span("setup"):
            scenario, setup_s = _timed_setup(program, workload, args.seed)
    else:
        scenario, setup_s = _timed_setup(program, workload, args.seed)

    passes, counters = _measure(program, workload, scenario, args.seconds, recorder)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, problems = _check(program, workload, scenario, args.seed, passes)
    attempted = len(passes) * workload.num_snapshots
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    stamp = time.strftime("%Y%m%dT%H%M%S")
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}-{stamp}"
    record = {
        "provenance": _provenance(workload, args.seed, args.seconds, args.trace),
        "attempted": attempted,
        "failed": len(failed),
        "failed_frac": len(failed) / attempted,
        "problems": problems,
    }
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"src_loc={record['provenance']['src_loc']} rev={record['provenance']['git_rev']}")
    print(f"  failed_frac {record['failed_frac']:.4f} ratio ({len(failed)}/{attempted})")

    if recorder is not None:
        from layers import UNITS, layer_metrics

        untraced = [p for p in passes if not p.traced]
        traced = [p for p in passes if p.traced]
        per_eval = [
            sum(p.busy_s for p in group) / sum(len(p.latencies) for p in group)
            for group in (untraced, traced)
        ]
        values = layer_metrics(
            recorder.spans,
            counters,
            len(traced) * workload.num_snapshots,
            per_eval[1] / per_eval[0] - 1.0,
            workload.stresses,
        )
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
        _write_json("traces", f"{tag}.json", {"spans": recorder.spans, "counters": counters})
    else:
        latencies = [lat for p in passes for lat in p.latencies]
        tail, percentile = _tail(latencies)
        setup_samples = [setup_s] + [
            _probe_setup(workload, args.seed) for _ in range(SETUP_SAMPLES - 1)
        ]
        values = {
            "setup_s": statistics.median(setup_samples),
            "snapshots_per_s": len(latencies) / sum(p.busy_s for p in passes),
            "snapshot_p50_s": statistics.median(latencies),
            "snapshot_tail_s": tail,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
        record["setup_samples_s"] = setup_samples
        record["wall_snapshots_per_s"] = len(latencies) / sum(p.wall_s for p in passes)
        record["tail_percentile"] = percentile
        record["latency_samples"] = len(latencies)
        print(f"  snapshot_tail_s is p{percentile:.1f} of {len(latencies)} evaluations")

    for name, entry in metrics.items():
        print(f"  {name} {entry['value']:.6g} {entry['unit']}")
    record["metrics"] = metrics
    print(f"  record: {_write_json('records', f'{tag}.json', record).relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
