"""Every call the benchmark makes into the program, in one place.

The benchmark drives the program only through these entry points, so a
refactor that renames or merges one of them needs to touch this file
alone (and must keep the listed callables, or their successors, working):

* ``Scenario.paper_default`` and ``ScenarioScale`` — scenario
  construction; ``Scenario.ground``, ``Scenario.pairs`` and
  ``Scenario.engine.static`` force the set-up layers the sweep uses;
* ``repro.core.pipeline.compute_rtt_series_multi(scenario, modes,
  progress=...)`` under ``repro.core.checkpoint.checkpoint_root(dir)`` —
  the RTT day sweep (paper Fig. 2);
* ``repro.experiments.fig4_throughput.throughput_matrix(scenario,
  ks=(1, 4), time_s=t, processes=1)`` — one Fig. 4 evaluation;
* ``Scenario.graph_at(t, mode)`` — used only by the output check, outside
  the timed sweep.

Runs are serial, strict mode and observability stay at their defaults
(off), and the constellation is the Starlink preset.
"""

from __future__ import annotations

import dataclasses

from repro.core.checkpoint import checkpoint_root
from repro.core.pipeline import compute_rtt_series_multi
from repro.core.scenario import Scenario, ScenarioScale
from repro.experiments.fig4_throughput import throughput_matrix
from repro.network.graph import ConnectivityMode

#: Modes every workload evaluates, in result order.
MODES = (ConnectivityMode.BP_ONLY, ConnectivityMode.HYBRID)
MODE_NAMES = tuple(mode.value for mode in MODES)
#: Path counts of the Fig. 4 evaluation.
KS = (1, 4)


def build_scenario(workload, seed: int) -> Scenario:
    """Construct the workload's scenario and build its set-up layers.

    Everything the timed sweep would otherwise build lazily on first use
    — ground segment, sampled pairs, the engine's static layer — is built
    here, so set-up time is measured apart from sweep time.
    """
    scale = ScenarioScale(
        name=f"perfbench-{workload.name}",
        num_cities=workload.num_cities,
        num_pairs=workload.num_pairs,
        relay_spacing_deg=workload.relay_spacing_deg,
        num_snapshots=workload.num_snapshots,
        snapshot_interval_s=workload.snapshot_interval_s,
    )
    scenario = dataclasses.replace(
        Scenario.paper_default("starlink", scale), traffic_seed=int(seed)
    )
    scenario.ground
    scenario.pairs
    scenario.engine.static
    return scenario


def fresh_copy(scenario: Scenario) -> Scenario:
    """The same scenario with none of its cached layers (own engine)."""
    return dataclasses.replace(scenario)


def rtt_sweep(scenario: Scenario, root, progress) -> dict:
    """One RTT day sweep over every mode; ``{mode name: (pairs, snapshots)}``."""
    with checkpoint_root(root):
        series = compute_rtt_series_multi(scenario, MODES, progress=progress)
    return {mode.value: series[mode].rtt_ms for mode in MODES}


def throughput_eval(scenario: Scenario, time_s: float) -> dict:
    """One Fig. 4 evaluation; ``{"<mode>-k<k>": aggregate Gbps}``."""
    matrix = throughput_matrix(scenario, ks=KS, time_s=float(time_s), processes=1)
    return {f"{mode}-k{k}": float(gbps) for (mode, k), gbps in matrix.items()}


def snapshot_graph(scenario: Scenario, time_s: float, mode_name: str):
    """The physical snapshot graph the check recomputes RTTs on."""
    return scenario.graph_at(float(time_s), ConnectivityMode(mode_name))
