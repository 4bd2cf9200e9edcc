"""Extension — graceful degradation under component outages.

Section 5 shows that without ISLs, 25-31% of satellites are *naturally*
useless at any moment (nobody sees them over oceans). This experiment
extends that analysis to *injected* faults: remove a seeded fraction of
satellites from every snapshot (see :mod:`repro.faults`) and measure
how pair reachability and median RTT degrade for the BP-only versus the
hybrid network.

The expectation, and the robustness counterpart of the paper's thesis:
the BP network leans on dense satellite coverage to stitch ground hops
together, so its connectivity collapses faster under satellite loss
than the hybrid network, whose ISL mesh routes around missing nodes.
"""

from __future__ import annotations

import numpy as np

from repro.context import run_context
from repro.core.pipeline import pair_rtts_on_graph
from repro.core.scenario import Scenario, ScenarioScale
from repro.experiments.base import ExperimentResult, register
from repro.faults import FaultSpec
from repro.network.graph import ConnectivityMode
from repro.reporting.tables import format_summary, format_table

__all__ = ["outage_reachability", "run"]

#: Satellite-outage fractions swept, from intact to 90 % lost.
FRACTIONS = (0.0, 0.5, 0.8, 0.9)
#: Seed of the outage draw.
SEED = 7


def outage_reachability(
    scenario: Scenario,
    fractions,
    modes,
    seed: int = SEED,
    times_s: list[float] | None = None,
) -> dict:
    """Reachability and latency of a scenario under satellite outages.

    Maps each ``(fraction, mode)`` to ``reachable`` (fraction of (pair,
    snapshot) cells with a finite RTT) and ``median_rtt_ms`` (over the
    reachable cells; ``nan`` when nothing is reachable). Deterministic
    under a fixed seed. Each fraction's graphs are built under
    ``run_context(faults=...)``, which overrides any spec the caller's
    context holds. Instants are the outer loop, so each instant's graphs
    all read the one frame the scenario's engine holds.
    """
    if times_s is None:
        times_s = [float(t) for t in scenario.times_s]
    rtts = {(fraction, mode): [] for fraction in fractions for mode in modes}
    for time_s in times_s:
        for (fraction, mode), rows in rtts.items():
            with run_context(faults=FaultSpec(sat=fraction, seed=seed)):
                graph = scenario.graph_at(float(time_s), mode)
            rows.append(pair_rtts_on_graph(graph, scenario.pairs))
    result = {}
    for key, rows in rtts.items():
        rtt = np.stack(rows, axis=1)
        finite = rtt[np.isfinite(rtt)]
        median = float(np.median(finite)) if finite.size else float("nan")
        result[key] = {"reachable": finite.size / rtt.size, "median_rtt_ms": median}
    return result


@register("faults")
def run(scale: ScenarioScale = ScenarioScale.small()) -> ExperimentResult:
    """Run this experiment; see the module docstring for the design."""
    scenario = Scenario.paper_default("starlink", scale)
    # A handful of snapshots suffices for the degradation curve; the
    # outage draw is persistent across snapshots anyway.
    times = [float(t) for t in scenario.times_s[:: max(1, len(scenario.times_s) // 4)]]
    modes = (ConnectivityMode.BP_ONLY, ConnectivityMode.HYBRID)
    outcomes = outage_reachability(scenario, FRACTIONS, modes, seed=SEED, times_s=times)

    rows = []
    bp_reachable, hybrid_reachable = [], []
    for fraction in FRACTIONS:
        bp = outcomes[(fraction, ConnectivityMode.BP_ONLY)]
        hybrid = outcomes[(fraction, ConnectivityMode.HYBRID)]
        bp_reachable.append(bp["reachable"])
        hybrid_reachable.append(hybrid["reachable"])
        rows.append(
            [
                f"{100 * fraction:.0f}%",
                f"{100 * bp['reachable']:.1f}%",
                f"{100 * hybrid['reachable']:.1f}%",
                f"{bp['median_rtt_ms']:.1f}",
                f"{hybrid['median_rtt_ms']:.1f}",
            ]
        )

    bp_drop = bp_reachable[0] - bp_reachable[-1]
    hybrid_drop = hybrid_reachable[0] - hybrid_reachable[-1]
    table = format_table(
        [
            "satellites lost",
            "BP reachable",
            "hybrid reachable",
            "BP median RTT (ms)",
            "hybrid median RTT (ms)",
        ],
        rows,
        title="Graceful degradation under satellite outages",
    )
    headline = {
        f"BP reachability drop at {100 * FRACTIONS[-1]:.0f}% outage (pp)": round(
            100 * bp_drop, 1
        ),
        f"hybrid reachability drop at {100 * FRACTIONS[-1]:.0f}% outage (pp)": round(
            100 * hybrid_drop, 1
        ),
        "BP degrades faster than hybrid": bool(bp_drop >= hybrid_drop),
    }
    return ExperimentResult(
        experiment_id="faults",
        title="BP vs hybrid resilience to satellite outages",
        scale_name=scale.name,
        tables=[table, format_summary("Outage-resilience headline", headline)],
        data={
            "fractions": np.asarray(FRACTIONS),
            "bp_reachable": np.asarray(bp_reachable),
            "hybrid_reachable": np.asarray(hybrid_reachable),
            "seed": SEED,
        },
        headline=headline,
    )
