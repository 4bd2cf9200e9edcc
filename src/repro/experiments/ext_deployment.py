"""Extension — staged deployment: the constellation the paper actually saw.

When the paper was written, Starlink had "deployed nearly 500
satellites" of the 1,584-satellite first shell — and none had ISLs.
This experiment models the deployment campaign (following the staged-
deployment literature the paper cites [11]): a partially filled Walker
shell with planes spread evenly, at one-third / two-thirds / full
deployment, measuring per stage

* reachability of the traffic matrix (can pairs connect at all),
* median shortest-path RTT,
* aggregate throughput,

for BP-only and hybrid connectivity. The interesting shape: ISLs help
*most* when the shell is sparse — a partially deployed constellation has
coverage holes that ISLs bridge but relay GTs cannot.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.pipeline import compute_rtt_series_multi
from repro.core.scenario import Scenario, ScenarioScale, full_scale_requested
from repro.experiments.base import ExperimentResult, register
from repro.flows.throughput import evaluate_throughput
from repro.network.graph import ConnectivityMode
from repro.orbits.constellation import Constellation, Shell
from repro.orbits.presets import starlink_shell
from repro.reporting.tables import format_summary, format_table

__all__ = ["run", "partial_starlink"]

#: Deployment stages: plane counts out of 72 (24 planes ~ 528 satellites,
#: the paper's "nearly 500 deployed" moment).
STAGES = (24, 48, 72)


def partial_starlink(num_planes: int) -> Constellation:
    """Starlink's first shell with only ``num_planes`` planes deployed.

    Planes launch into their final altitude/inclination; spreading the
    deployed planes evenly in RAAN (which operators do, for coverage)
    makes the partial constellation itself a valid Walker shell.
    """
    full = starlink_shell()
    if not 1 <= num_planes <= full.num_planes:
        raise ValueError(f"num_planes must be in [1, {full.num_planes}]")
    shell = Shell(
        name=f"starlink-partial-{num_planes}",
        num_planes=num_planes,
        sats_per_plane=full.sats_per_plane,
        altitude_m=full.altitude_m,
        inclination_deg=full.inclination_deg,
        min_elevation_deg=full.min_elevation_deg,
        phase_offset_fraction=full.phase_offset_fraction,
    )
    return Constellation(name=shell.name, shells=(shell,))


@register("ext-deployment")
def run(scale: ScenarioScale | None = None) -> ExperimentResult:
    """Run this experiment; see the module docstring for the design."""
    scale = scale or (
        ScenarioScale.full()
        if full_scale_requested()
        else ScenarioScale(
            name="deployment-bench",
            num_cities=150,
            num_pairs=300,
            relay_spacing_deg=2.0,
            num_snapshots=4,
            snapshot_interval_s=1800.0,
        )
    )

    rows = []
    data = {}
    for num_planes in STAGES:
        constellation = partial_starlink(num_planes)
        scenario = replace(
            Scenario.paper_default("starlink", scale), constellation=constellation
        )
        stage = {}
        modes = (ConnectivityMode.BP_ONLY, ConnectivityMode.HYBRID)
        # The t = 0 graphs for throughput come first: the sweep's first
        # instant is t = 0, so it reads the frame they built, and the
        # engine then holds one frame at a time.
        graphs = {mode: scenario.graph_at(0.0, mode) for mode in modes}
        all_series = compute_rtt_series_multi(scenario, modes)
        for mode in modes:
            series = all_series[mode]
            finite = series.rtt_ms[np.isfinite(series.rtt_ms)]
            throughput = evaluate_throughput(
                graphs[mode], scenario.pairs, k=4
            ).aggregate_gbps
            stage[mode.value] = {
                "reachable": series.reachable_fraction(),
                "median_rtt_ms": float(np.median(finite)) if len(finite) else np.nan,
                "throughput_gbps": throughput,
            }
        data[num_planes] = stage
        sats = num_planes * 22
        rows.append(
            [
                f"{num_planes}/72 ({sats} sats)",
                f"{100 * stage['bp']['reachable']:.1f}%",
                f"{100 * stage['hybrid']['reachable']:.1f}%",
                f"{stage['bp']['median_rtt_ms']:.1f}",
                f"{stage['hybrid']['median_rtt_ms']:.1f}",
                f"{stage['hybrid']['throughput_gbps'] / max(stage['bp']['throughput_gbps'], 1e-9):.2f}x",
            ]
        )

    table = format_table(
        ["deployment", "BP reachable", "hybrid reachable",
         "BP median RTT (ms)", "hybrid median RTT (ms)", "hybrid/BP throughput"],
        rows,
        title="Staged deployment of the Starlink shell",
    )
    third = data[STAGES[0]]
    headline = {
        "hybrid reachability at ~500 sats (the paper's moment)": round(
            third["hybrid"]["reachable"], 3
        ),
        "BP reachability at ~500 sats": round(third["bp"]["reachable"], 3),
        "hybrid/BP throughput at ~500 sats": round(
            third["hybrid"]["throughput_gbps"]
            / max(third["bp"]["throughput_gbps"], 1e-9),
            2,
        ),
        "hybrid/BP throughput at full deployment": round(
            data[72]["hybrid"]["throughput_gbps"]
            / max(data[72]["bp"]["throughput_gbps"], 1e-9),
            2,
        ),
    }
    return ExperimentResult(
        experiment_id="ext-deployment",
        title="Partial deployment: ISLs vs BP during the launch campaign",
        scale_name=scale.name,
        tables=[table, format_summary("Extension headline", headline)],
        data=data,
        headline=headline,
    )
