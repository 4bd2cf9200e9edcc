"""Ablations — the design choices DESIGN.md §5 varies, one at a time.

Each study changes exactly one decision of the paper's model and reports
the comparison, so the choice is measured rather than asserted. Every
variant is derived from the given scale:

* D3 — edge-disjoint vs node-disjoint multipath: paths found (k = 4)
  and the mean second-path length over the first :data:`D3_PAIRS`
  pairs on the hybrid graph at t = 0. Both models take the same first
  path, after which node-disjointness searches a subgraph of what
  edge-disjointness searches, so its second path is never shorter;
* D4 — relay-grid density: the scale's spacing and grids
  :data:`D4_COARSENING` times coarser, each nested in the scale's grid.
  Reports the median BP RTT over every (pair, snapshot) cell, an
  unreachable cell counting as infinite, and the share of satellites
  outside BP's giant component at t = 0. A denser grid is a superset
  graph, so neither can rise;
* D5 — aircraft density: BP's reachable (pair, snapshot) share with the
  fleet scaled by each of :data:`D5_AIRCRAFT_DENSITIES`;
* D6 — max-min fair allocation vs equal split over the same k = 1
  hybrid routing;
* D7 — per-link capacities (the paper) vs a per-satellite radio cap of
  each of :data:`D7_CAPS_BPS`, k = 4;
* D8 — unbounded GTs per satellite (the paper) vs each beam count of
  :data:`D8_BEAMS`, k = 4, and BP's stranded satellites;
* D9 — uniform (the paper) vs gravity-weighted pair sampling, k = 4.

Throughput studies evaluate t = 0. Routing does not depend on capacity,
so each mode of the paper's graph is routed once, for k = 1 and k = 4
together: D6 re-allocates its k = 1 routing, and D7's caps, D8's
unbounded row and D9's uniform row re-allocate its k = 4 routing. Only
D8's beam limits and D9's gravity pairs route again. D4's and D5's
paper-model rows are one BP sweep of the given scale.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.pipeline import compute_rtt_series_multi
from repro.core.scenario import Scenario, ScenarioScale
from repro.experiments.base import ExperimentResult, register
from repro.flows.equalsplit import equal_split_allocation
from repro.flows.routing import route_traffic_multi_k
from repro.flows.throughput import evaluate_throughput
from repro.network.graph import ConnectivityMode
from repro.network.paths import k_edge_disjoint_paths, k_node_disjoint_paths
from repro.reporting.tables import format_summary, format_table

__all__ = ["run"]

BP = ConnectivityMode.BP_ONLY
HYBRID = ConnectivityMode.HYBRID
MODES = (BP, HYBRID)

#: Edge-disjoint paths per pair in the multipath studies (Fig. 4's k = 4).
K = 4
#: Pairs D3 searches one by one (per-pair searches, so a sample).
D3_PAIRS = 30
#: D4's relay spacings as multiples of the scale's, coarsest first.
D4_COARSENING = (4, 2, 1)
#: D5's aircraft-fleet scale factors; 0 removes the aircraft.
D5_AIRCRAFT_DENSITIES = (0.0, 0.25, 1.0)
#: D7's per-satellite radio caps; ``None`` is the per-link-only model.
D7_CAPS_BPS = (None, 40e9, 20e9)
#: D8's GTs per satellite; ``None`` is the unbounded paper model.
D8_BEAMS = (None, 16, 8)
#: D9's pair-sampling laws (``Scenario.traffic_weighting``).
D9_WEIGHTINGS = ("uniform", "gravity")


def _stranded_fraction(graph) -> float:
    return graph.satellite_component_stats()["disconnected_fraction"]


def _bp_series(scenario: Scenario):
    return compute_rtt_series_multi(scenario, [BP])[BP]


def _disjointness(scenario: Scenario, graph) -> dict:
    """D3: each sampled pair's edge- and node-disjoint paths and their lengths."""
    matrix = graph.matrix()
    edge, node = [], []
    for pair in scenario.pairs[:D3_PAIRS]:
        source, target = graph.gt_node(pair.a), graph.gt_node(pair.b)
        for lengths, finder in ((edge, k_edge_disjoint_paths), (node, k_node_disjoint_paths)):
            lengths.append([path.length_m for path in finder(matrix, source, target, K)])
    return {
        "edge_paths": np.asarray([len(lengths) for lengths in edge]),
        "node_paths": np.asarray([len(lengths) for lengths in node]),
        "edge_length_m": edge,
        "node_length_m": node,
    }


def _mean_second_path_km(d3: dict) -> dict:
    """D3: mean second-path length per model over pairs where both found one."""
    both = [
        (edge[1], node[1])
        for edge, node in zip(d3["edge_length_m"], d3["node_length_m"])
        if len(node) > 1
    ]
    edge, node = (np.asarray(column) / 1e3 for column in zip(*both))
    return {"edge-disjoint": float(edge.mean()), "node-disjoint": float(node.mean())}


def _relay_density(scenario: Scenario, paper_series, paper_stranded) -> dict:
    """D4: median BP RTT and stranded satellites per relay spacing."""
    scale = scenario.scale
    spacings, medians, stranded = [], [], []
    for factor in D4_COARSENING:
        if factor == 1:
            series, fraction = paper_series, paper_stranded
        else:
            variant = replace(
                scenario,
                scale=replace(scale, relay_spacing_deg=scale.relay_spacing_deg * factor),
            )
            fraction = _stranded_fraction(variant.graph_at(0.0, BP))
            series = _bp_series(variant)
        spacings.append(scale.relay_spacing_deg * factor)
        medians.append(float(np.median(series.rtt_ms)))
        stranded.append(fraction)
    return {
        "spacing_deg": spacings,
        "median_bp_rtt_ms": medians,
        "bp_stranded_fraction": stranded,
    }


def _aircraft_density(scenario: Scenario, paper_series) -> dict:
    """D5: BP's reachable (pair, snapshot) share per aircraft density."""
    reachable = []
    for density in D5_AIRCRAFT_DENSITIES:
        if density == 1.0:
            series = paper_series
        else:
            series = _bp_series(
                replace(scenario, aircraft_density_scale=density, use_aircraft=density > 0)
            )
        reachable.append(series.reachable_fraction())
    return {"aircraft_density": list(D5_AIRCRAFT_DENSITIES), "bp_reachable": reachable}


def _gbps(graph, pairs, routed, k, **kwargs) -> float:
    """Aggregate Gbps of ``routed[k]``, re-allocated under ``kwargs``."""
    return evaluate_throughput(
        graph, pairs, k=k, routing=routed[k], **kwargs
    ).aggregate_gbps


def _mode_gbps(scenario: Scenario) -> dict:
    """Aggregate k = 4 Gbps of each mode on ``scenario``'s graphs at t = 0."""
    return {
        mode.value: evaluate_throughput(
            scenario.graph_at(0.0, mode), scenario.pairs, k=K
        ).aggregate_gbps
        for mode in MODES
    }


def _ratio_rows(labels, gbps: dict) -> list[list[str]]:
    """Table rows of BP and hybrid Gbps and their ratio, one per label."""
    return [
        [label, f"{bp:.0f}", f"{hybrid:.0f}", f"{hybrid / bp:.2f}x"]
        for label, bp, hybrid in zip(labels, gbps["bp_gbps"], gbps["hybrid_gbps"])
    ]


@register("ablations")
def run(scale: ScenarioScale = ScenarioScale.small()) -> ExperimentResult:
    """Run this experiment; see the module docstring for the design."""
    scenario = Scenario.paper_default("starlink", scale)
    pairs = scenario.pairs
    graphs = {mode: scenario.graph_at(0.0, mode) for mode in MODES}
    paper_stranded = _stranded_fraction(graphs[BP])
    routed = {mode: route_traffic_multi_k(graphs[mode], pairs, (1, K)) for mode in MODES}

    d3 = _disjointness(scenario, graphs[HYBRID])
    d6 = {
        "maxmin_gbps": _gbps(graphs[HYBRID], pairs, routed[HYBRID], 1),
        "equal_split_gbps": _gbps(
            graphs[HYBRID], pairs, routed[HYBRID], 1, allocator=equal_split_allocation
        ),
    }

    d7 = {"cap_gbps": [None if cap is None else cap / 1e9 for cap in D7_CAPS_BPS]}
    for mode in MODES:
        d7[f"{mode.value}_gbps"] = [
            _gbps(graphs[mode], pairs, routed[mode], K, satellite_radio_cap_bps=cap)
            for cap in D7_CAPS_BPS
        ]
    paper_gbps = {mode.value: d7[f"{mode.value}_gbps"][0] for mode in MODES}

    d8 = {"beams": list(D8_BEAMS), "bp_gbps": [], "hybrid_gbps": [], "bp_stranded_fraction": []}
    for beams in D8_BEAMS:
        if beams is None:
            gbps, stranded = paper_gbps, paper_stranded
        else:
            variant = scenario.with_assembly(max_gts_per_satellite=beams)
            gbps = _mode_gbps(variant)
            stranded = _stranded_fraction(variant.graph_at(0.0, BP))
        d8["bp_gbps"].append(gbps["bp"])
        d8["hybrid_gbps"].append(gbps["hybrid"])
        d8["bp_stranded_fraction"].append(stranded)

    d9 = {"weighting": list(D9_WEIGHTINGS), "bp_gbps": [], "hybrid_gbps": []}
    for weighting in D9_WEIGHTINGS:
        if weighting == scenario.traffic_weighting:
            gbps = paper_gbps
        else:
            gbps = _mode_gbps(replace(scenario, traffic_weighting=weighting))
        d9["bp_gbps"].append(gbps["bp"])
        d9["hybrid_gbps"].append(gbps["hybrid"])

    # The RTT sweeps come last: they move the scenario engine's one
    # held frame off t = 0, where the studies above read their graphs.
    paper_series = _bp_series(scenario)
    d4 = _relay_density(scenario, paper_series, paper_stranded)
    d5 = _aircraft_density(scenario, paper_series)

    second_km = _mean_second_path_km(d3)
    tables = [
        format_table(
            ["model", f"mean paths found (k={K})", f"pairs with {K} paths",
             "mean 2nd-path length (km)"],
            [
                [name, f"{counts.mean():.2f}", int(np.sum(counts == K)),
                 f"{second_km[name]:.0f}"]
                for name, counts in (
                    ("edge-disjoint", d3["edge_paths"]),
                    ("node-disjoint", d3["node_paths"]),
                )
            ],
            title=f"D3: edge- vs node-disjoint multipath ({len(d3['edge_paths'])} pairs)",
        ),
        format_table(
            ["relay spacing (deg)", "median BP RTT (ms)", "BP stranded satellites"],
            [
                [f"{spacing:g}", f"{median:.2f}", f"{100 * fraction:.1f}%"]
                for spacing, median, fraction in zip(
                    d4["spacing_deg"], d4["median_bp_rtt_ms"], d4["bp_stranded_fraction"]
                )
            ],
            title="D4: relay-grid density vs BP latency and stranded satellites",
        ),
        format_table(
            ["aircraft density", "BP reachable (pair, snapshot) share"],
            [
                [f"{density:g}x", f"{share:.3f}"]
                for density, share in zip(d5["aircraft_density"], d5["bp_reachable"])
            ],
            title="D5: aircraft-relay density vs BP reachability",
        ),
        format_table(
            ["allocator", "aggregate throughput (Gbps)"],
            [
                ["max-min fair (paper)", f"{d6['maxmin_gbps']:.0f}"],
                ["equal split", f"{d6['equal_split_gbps']:.0f}"],
            ],
            title="D6: allocation scheme vs hybrid throughput (k=1)",
        ),
        format_table(
            ["per-satellite radio cap", "BP (Gbps)", "hybrid (Gbps)", "hybrid/BP"],
            _ratio_rows(
                ["none (paper)" if cap is None else f"{cap:g} Gbps" for cap in d7["cap_gbps"]],
                d7,
            ),
            title=f"D7: per-satellite radio capacity cap (k={K})",
        ),
        format_table(
            ["per-satellite GT budget", "BP (Gbps)", "hybrid (Gbps)", "hybrid/BP",
             "BP stranded sats"],
            [
                row + [f"{100 * stranded:.0f}%"]
                for row, stranded in zip(
                    _ratio_rows(
                        ["unbounded (paper)" if b is None else f"{b} beams" for b in D8_BEAMS],
                        d8,
                    ),
                    d8["bp_stranded_fraction"],
                )
            ],
            title=f"D8: finite beam counts (k={K})",
        ),
        format_table(
            ["traffic model", "BP (Gbps)", "hybrid (Gbps)", "hybrid/BP"],
            _ratio_rows(d9["weighting"], d9),
            title=f"D9: uniform (paper) vs gravity pair sampling (k={K})",
        ),
    ]

    def ratio(gbps, i):
        return gbps["hybrid_gbps"][i] / gbps["bp_gbps"][i]

    headline = {
        "D3 mean node-disjoint / edge-disjoint paths": round(
            float(d3["node_paths"].mean() / d3["edge_paths"].mean()), 3
        ),
        "D3 mean node-disjoint / edge-disjoint second-path length": round(
            second_km["node-disjoint"] / second_km["edge-disjoint"], 3
        ),
        "D4 median BP RTT, coarsest -> scale's relay grid (ms)": (
            f"{d4['median_bp_rtt_ms'][0]:.2f} -> {d4['median_bp_rtt_ms'][-1]:.2f}"
        ),
        "D5 BP reachable share without / with aircraft": (
            f"{d5['bp_reachable'][0]:.3f} / {d5['bp_reachable'][-1]:.3f}"
        ),
        "D6 max-min / equal split": round(d6["maxmin_gbps"] / d6["equal_split_gbps"], 2),
        "D7 hybrid/BP without cap": round(ratio(d7, 0), 2),
        "D7 hybrid/BP at a 20 Gbps cap [paper Fig. 4: >=3.1x]": round(ratio(d7, -1), 2),
        "D8 hybrid/BP at 16 beams": round(ratio(d8, 1), 2),
        "D8 hybrid/BP at 8 beams": round(ratio(d8, 2), 2),
        "D9 hybrid/BP gravity / uniform": round(ratio(d9, 1) / ratio(d9, 0), 2),
    }
    tables.append(format_summary("Ablation headline", headline))
    return ExperimentResult(
        experiment_id="ablations",
        title="Design-choice ablations (DESIGN.md §5, D3-D9)",
        scale_name=scale.name,
        tables=tables,
        data={"d3": d3, "d4": d4, "d5": d5, "d6": d6, "d7": d7, "d8": d8, "d9": d9},
        headline=headline,
    )
