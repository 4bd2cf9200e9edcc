"""One-shot Markdown report: every experiment's tables in a single file.

``python -m repro.cli report DIR`` (or :func:`generate_report` directly)
renders the result JSONs that ``repro run --out DIR`` wrote into one
self-contained Markdown document — the artifact to attach to a
reproduction claim. It runs nothing: the runner
(:mod:`repro.core.runner`) is the only code that calls an experiment.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro import __version__
from repro.experiments.base import ExperimentResult
from repro.obs.schema import artifact_kind

__all__ = ["generate_report", "render_report"]

#: Order in which sections appear (paper figures first, then extensions).
SECTION_ORDER = [
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "disconnected",
    "fig6",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "ext-gso",
    "ext-fiber",
    "ext-maxflow",
    "ext-modcod",
    "ext-dynamics",
    "ext-terouting",
    "ext-deployment",
]


def render_report(
    results: dict[str, ExperimentResult], sources: dict[str, str] | None = None
) -> str:
    """Assemble experiment results into one Markdown document.

    ``sources`` maps an experiment id to the file its result came from;
    each section names it.
    """
    sources = sources or {}
    ordered = [eid for eid in SECTION_ORDER if eid in results]
    ordered += [eid for eid in sorted(results) if eid not in SECTION_ORDER]

    lines = [
        '# Reproduction report — "Internet from Space" without Inter-satellite Links?',
        "",
        f"Generated by `repro` {__version__} from the result JSONs of a",
        "`repro run --out` directory. Compare against the paper via",
        "`EXPERIMENTS.md` (expected shapes and known deviations).",
        "",
        "## Contents",
        "",
    ]
    for eid in ordered:
        lines.append(f"- [{eid}](#{eid.replace('.', '')}): {results[eid].title}")
    lines.append("")

    for eid in ordered:
        result = results[eid]
        source = f", from `{sources[eid]}`" if eid in sources else ""
        lines.append(f"## {eid}")
        lines.append("")
        lines.append(f"**{result.title}** — scale `{result.scale_name}`{source}")
        lines.append("")
        for table in result.tables:
            lines.append("```")
            lines.append(table)
            lines.append("```")
            lines.append("")
        if result.headline:
            lines.append("Headline:")
            lines.append("")
            for key, value in result.headline.items():
                lines.append(f"- {key}: **{value}**")
            lines.append("")
    return "\n".join(lines)


def generate_report(results_dir: str | Path, path: str | Path) -> Path:
    """Render the results in ``results_dir`` into the Markdown file ``path``.

    Every top-level ``*.json`` of ``results_dir`` is parsed once and
    judged by :func:`repro.persistence.result_from_payload`; payloads of
    another ``kind`` (the ``metrics.json`` of ``--profile``) are skipped.
    Raises ``ValueError`` naming the file for a malformed result or a
    repeated experiment id, and when the directory holds no result at all.
    """
    from repro.persistence import result_from_payload

    results: dict[str, ExperimentResult] = {}
    sources: dict[str, str] = {}
    for source in sorted(Path(results_dir).glob("*.json")):
        try:
            payload = json.loads(source.read_text())
        except ValueError as exc:  # JSON and encoding errors alike
            raise ValueError(f"malformed experiment result {source}: {exc}") from exc
        if artifact_kind(payload) != "result":
            continue
        result = result_from_payload(payload, source)
        eid = result.experiment_id
        if eid in results:
            raise ValueError(f"{source} repeats experiment {eid!r} of {sources[eid]}")
        results[eid] = result
        sources[eid] = source.name
    if not results:
        raise ValueError(f"no experiment result JSON in {results_dir}")

    path = Path(path)
    if path.suffix != ".md":
        path = path.with_suffix(".md")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_report(results, sources) + "\n")
    return path
