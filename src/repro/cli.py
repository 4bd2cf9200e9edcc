"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``list``
    Show the registered experiments (one per paper figure/table).
``run <id> [...]``
    Run experiments and print their rendered tables. ``--scale`` picks a
    named scale (small/medium/full/throughput-bench); ``--out DIR``
    additionally writes each rendering to ``DIR/<id>.txt`` plus the
    machine-readable ``DIR/<id>.json``. Batches are fault-tolerant: a
    failing experiment is recorded and the rest still run (``--fail-fast``
    aborts instead), with an end-of-run summary and non-zero exit code.
    ``--resume DIR`` checkpoints RTT sweeps so interrupted runs pick up
    where they left off; ``--inject-fault sat:0.05`` degrades every
    scenario under seeded component outages (see ``repro.faults``).
    ``--profile`` collects per-experiment spans/counters (graph build,
    Dijkstra, allocation, checkpoint I/O, worker retries — see
    ``repro.obs``), prints per-experiment profile tables, and with
    ``--out`` writes a machine-readable ``metrics.json`` next to the
    results. ``--strict`` turns on result invariant guards
    (``repro.integrity``); ``--fresh`` (with ``--resume``) quarantines
    a checkpoint directory written by a different configuration and
    restarts it instead of failing. ``--jobs N`` spreads each
    multi-snapshot sweep over N worker processes (default 1: in-process);
    results are byte-identical for any N.
``verify <dir>``
    Audit an artifact/checkpoint tree: checkpoint shards against their
    manifests' digests and the checks resume applies, result and metrics
    JSON against their schemas. Exits non-zero (and names each offender)
    on violations.
``report <dir>``
    Render the result JSONs a ``run --out <dir>`` wrote into one Markdown
    file (``--out``, default ``REPORT.md``). It runs no experiment.
``info``
    Print the constellation presets and scale definitions.
``scenario``
    Summarize a scenario's ground segment and traffic matrix without
    running anything (useful to sanity-check a scale before a long run).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro import __version__
from repro.core.scenario import Scenario, ScenarioScale
from repro.experiments import all_experiments
from repro.orbits.presets import PRESET_NAMES, preset
from repro.reporting import format_summary, format_table

__all__ = ["main", "build_parser"]

_SCALES = {
    "small": ScenarioScale.small,
    "medium": ScenarioScale.medium,
    "full": ScenarioScale.full,
    "throughput-bench": ScenarioScale.throughput_bench,
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Internet from Space without Inter-satellite "
            "Links?' (HotNets 2020)"
        ),
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments")
    sub.add_parser("info", help="show presets and scales")

    run = sub.add_parser("run", help="run experiments")
    run.add_argument("ids", nargs="+", help="experiment ids (or 'all')")
    run.add_argument(
        "--scale",
        choices=sorted(_SCALES),
        default=None,
        help="scale override (default: experiment-specific)",
    )
    run.add_argument("--out", type=Path, default=None, help="directory for outputs")
    run.add_argument(
        "--fail-fast",
        action="store_true",
        help="abort the batch at the first failing experiment "
        "(default: run the rest, then exit 1)",
    )
    run.add_argument(
        "--resume",
        type=Path,
        default=None,
        metavar="DIR",
        help=(
            "checkpoint RTT sweeps under DIR and resume from whatever a "
            "previous interrupted run left there"
        ),
    )
    run.add_argument(
        "--inject-fault",
        action="append",
        default=None,
        metavar="SPEC",
        help=(
            "seeded component-outage spec, e.g. 'sat:0.05' or "
            "'sat:0.05,relay:0.1,seed:7'; repeatable, and a later entry "
            "for the same component overrides an earlier one"
        ),
    )
    run.add_argument(
        "--profile",
        action="store_true",
        help=(
            "collect per-experiment span/counter metrics, print profile "
            "tables, and (with --out) write metrics.json"
        ),
    )
    run.add_argument(
        "--strict",
        action="store_true",
        help=(
            "enable result invariant guards: RTTs checked against the "
            "speed-of-light floor, allocations against capacities"
        ),
    )
    run.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help=(
            "worker processes per snapshot sweep (default 1: in-process); "
            "results are identical for any N"
        ),
    )
    run.add_argument(
        "--fresh",
        action="store_true",
        help=(
            "with --resume: quarantine a checkpoint directory that was "
            "written by a different configuration and restart it, "
            "instead of failing with CheckpointMismatchError"
        ),
    )

    verify = sub.add_parser(
        "verify",
        help="audit checkpoint shards and result/metrics JSON for corruption",
    )
    verify.add_argument(
        "directory", type=Path, help="artifact or checkpoint tree to audit"
    )
    verify.add_argument(
        "--quiet",
        action="store_true",
        help="print only violations (suppress the per-file tally)",
    )

    report = sub.add_parser(
        "report", help="render a run's result JSONs into one Markdown report"
    )
    report.add_argument(
        "directory", type=Path, help="a directory written by 'repro run --out'"
    )
    report.add_argument(
        "--out", type=Path, default=Path("REPORT.md"), help="output file"
    )

    scenario = sub.add_parser("scenario", help="summarize a scenario")
    scenario.add_argument(
        "--constellation", choices=PRESET_NAMES, default="starlink"
    )
    scenario.add_argument("--scale", choices=sorted(_SCALES), default="small")
    return parser


def _cmd_list() -> int:
    experiments = all_experiments()
    rows = [[eid, func.__module__.rsplit(".", 1)[-1]] for eid, func in sorted(experiments.items())]
    print(format_table(["experiment", "module"], rows, title="Registered experiments"))
    return 0


def _cmd_info() -> int:
    rows = []
    for name in PRESET_NAMES:
        constellation = preset(name)
        shells = ", ".join(
            f"{s.num_planes}x{s.sats_per_plane}@{s.altitude_m / 1000:.0f}km/"
            f"{s.inclination_deg:g}deg"
            for s in constellation.shells
        )
        rows.append([name, constellation.num_satellites, shells])
    print(format_table(["preset", "satellites", "shells"], rows, title="Constellations"))
    print()
    scale_rows = [
        [
            name,
            scale().num_cities,
            scale().num_pairs,
            f"{scale().relay_spacing_deg:g}",
            scale().num_snapshots,
        ]
        for name, scale in sorted(_SCALES.items())
    ]
    print(
        format_table(
            ["scale", "cities", "pairs", "relay spacing (deg)", "snapshots"],
            scale_rows,
            title="Scales",
        )
    )
    return 0


def _cmd_run(args) -> int:
    from repro.core.runner import UnknownExperimentError, run_experiments
    from repro.faults import parse_fault_spec

    fault_spec = None
    if args.inject_fault:
        try:
            fault_spec = parse_fault_spec(",".join(args.inject_fault))
        except ValueError as exc:
            print(f"bad --inject-fault spec: {exc}", file=sys.stderr)
            return 2
    if args.fresh and args.resume is None:
        print("--fresh requires --resume DIR", file=sys.stderr)
        return 2
    scale = _SCALES[args.scale]() if args.scale else None
    try:
        summary = run_experiments(
            args.ids,
            scale=scale,
            keep_going=not args.fail_fast,
            out_dir=args.out,
            resume_dir=args.resume,
            fault_spec=fault_spec,
            profile=args.profile,
            strict=args.strict,
            fresh=args.fresh,
            jobs=args.jobs,
        )
    except UnknownExperimentError as exc:
        print(f"unknown experiments: {', '.join(exc.unknown)}", file=sys.stderr)
        print(f"known: {', '.join(exc.known)}", file=sys.stderr)
        return 2
    if len(summary.outcomes) > 1 or summary.failures:
        print(summary.format_summary())
    if any(f.error_type == "CheckpointMismatchError" for f in summary.failures):
        print(
            "hint: the --resume directory was written by a different "
            "configuration; rerun with --fresh to quarantine it and "
            "restart, or point --resume elsewhere.",
            file=sys.stderr,
        )
    return summary.exit_code


def _cmd_verify(directory: Path, quiet: bool) -> int:
    from repro.integrity.verify import verify_tree

    report = verify_tree(directory)
    if quiet:
        for violation in report.violations:
            print(f"FAIL {violation}")
    else:
        print(report.format())
    return 0 if report.ok else 1


def _cmd_report(directory: Path, out: Path) -> int:
    from repro.reporting.report import generate_report

    try:
        path = generate_report(directory, out)
    except ValueError as exc:
        print(f"cannot render {directory}: {exc}", file=sys.stderr)
        return 1
    print(f"report written to {path}")
    return 0


def _cmd_scenario(constellation: str, scale_name: str) -> int:
    scenario = Scenario.paper_default(constellation, _SCALES[scale_name]())
    stations = scenario.ground.stations_at(0.0)
    print(
        format_summary(
            f"Scenario: {constellation} @ {scale_name}",
            {
                "satellites": scenario.constellation.num_satellites,
                "cities": stations.city_count,
                "relay GTs": stations.relay_count,
                "aircraft GTs (t=0, over water)": stations.aircraft_count,
                "city pairs": len(scenario.pairs),
                "snapshots": len(scenario.times_s),
                "snapshot interval (s)": scenario.scale.snapshot_interval_s,
            },
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "info":
        return _cmd_info()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "verify":
        return _cmd_verify(args.directory, args.quiet)
    if args.command == "report":
        return _cmd_report(args.directory, args.out)
    if args.command == "scenario":
        return _cmd_scenario(args.constellation, args.scale)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
