"""Ablation benchmarks for the design choices called out in DESIGN.md §5.

Each bench varies exactly one design decision and prints the comparison,
so the cost/benefit of the choice is measured, not asserted by fiat:

* D2 — scipy-csgraph Dijkstra vs a pure-networkx implementation;
* D3 — edge-disjoint vs node-disjoint multipath;
* D4 — relay-grid density (the paper fixes 0.5 degrees);
* D5 — aircraft-corridor density (drives the Fig. 3 effect);
* D6 — max-min fair allocation vs naive equal-split;
* D7 — per-link capacities (paper model) vs a per-satellite radio cap;
* D8 — unbounded GTs per satellite (paper model) vs finite beam counts;
* D9 — uniform pair sampling (paper model) vs gravity-weighted traffic.
"""

from dataclasses import replace

import networkx as nx
import numpy as np
import pytest

from benchmarks.conftest import OUTPUT_DIR
from repro.core.pipeline import compute_rtt_series_multi
from repro.core.scenario import Scenario, ScenarioScale
from repro.flows.equalsplit import equal_split_allocation
from repro.flows.routing import route_traffic
from repro.flows.throughput import evaluate_throughput
from repro.network.graph import ConnectivityMode
from repro.network.paths import k_edge_disjoint_paths, k_node_disjoint_paths
from repro.reporting import format_table


def _write(name: str, text: str) -> None:
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)


SMALL_TP = ScenarioScale(
    name="ablation-tp",
    num_cities=150,
    num_pairs=400,
    relay_spacing_deg=2.0,
    num_snapshots=1,
)


@pytest.fixture(scope="module")
def tp_scenario():
    return Scenario.paper_default("starlink", SMALL_TP)


@pytest.fixture(scope="module")
def hybrid_graph(tp_scenario):
    return tp_scenario.graph_at(0.0, ConnectivityMode.HYBRID)


class TestD2DijkstraBackend:
    def test_bench_csgraph_vs_networkx(self, benchmark, hybrid_graph, tp_scenario):
        """D2: the csgraph backend must beat pure networkx handily."""
        import time

        pairs = tp_scenario.pairs[:20]
        matrix = hybrid_graph.matrix()

        def run_csgraph():
            from scipy.sparse import csgraph

            for pair in pairs:
                csgraph.dijkstra(
                    matrix, directed=True, indices=hybrid_graph.gt_node(pair.a)
                )

        elapsed = benchmark.pedantic(run_csgraph, rounds=1, iterations=1)

        nx_graph = nx.from_scipy_sparse_array(matrix)
        started = time.time()
        for pair in pairs[:3]:  # networkx is slow; sample it.
            nx.single_source_dijkstra_path_length(
                nx_graph, hybrid_graph.gt_node(pair.a)
            )
        nx_per_source = (time.time() - started) / 3

        started = time.time()
        from scipy.sparse import csgraph

        for pair in pairs[:3]:
            csgraph.dijkstra(
                matrix, directed=True, indices=hybrid_graph.gt_node(pair.a)
            )
        cs_per_source = (time.time() - started) / 3

        _write(
            "ablation_d2_backend",
            format_table(
                ["backend", "seconds per single-source run"],
                [
                    ["scipy.csgraph", f"{cs_per_source:.4f}"],
                    ["networkx", f"{nx_per_source:.4f}"],
                    ["speedup", f"{nx_per_source / max(cs_per_source, 1e-9):.1f}x"],
                ],
                title="D2: Dijkstra backend on the snapshot graph",
            ),
        )
        assert cs_per_source < nx_per_source

    def test_bench_backends_agree(self, benchmark, hybrid_graph, tp_scenario):
        """Same distances from both backends (correctness of D2)."""
        from scipy.sparse import csgraph

        matrix = hybrid_graph.matrix()
        pair = tp_scenario.pairs[0]
        source = hybrid_graph.gt_node(pair.a)
        target = hybrid_graph.gt_node(pair.b)

        def run():
            cs = csgraph.dijkstra(matrix, directed=True, indices=source)[target]
            nx_graph = nx.from_scipy_sparse_array(matrix)
            nx_dist = nx.single_source_dijkstra_path_length(nx_graph, source)[target]
            return cs, nx_dist

        cs_dist, nx_dist = benchmark.pedantic(run, rounds=1, iterations=1)
        assert cs_dist == pytest.approx(nx_dist, rel=1e-9)


class TestD3DisjointnessModel:
    def test_bench_edge_vs_node_disjoint(self, benchmark, hybrid_graph, tp_scenario):
        """D3: node-disjoint paths are fewer/longer than edge-disjoint."""
        matrix = hybrid_graph.matrix()
        pairs = tp_scenario.pairs[:30]

        def run():
            rows = []
            for pair in pairs:
                s, t = hybrid_graph.gt_node(pair.a), hybrid_graph.gt_node(pair.b)
                edge_paths = k_edge_disjoint_paths(matrix, s, t, 4)
                node_paths = k_node_disjoint_paths(matrix, s, t, 4)
                rows.append((len(edge_paths), len(node_paths),
                             sum(p.length_m for p in edge_paths),
                             sum(p.length_m for p in node_paths)))
            return rows

        rows = benchmark.pedantic(run, rounds=1, iterations=1)
        edge_counts = np.array([r[0] for r in rows])
        node_counts = np.array([r[1] for r in rows])
        _write(
            "ablation_d3_disjointness",
            format_table(
                ["model", "mean paths found (k=4)", "pairs with 4 paths"],
                [
                    ["edge-disjoint", f"{edge_counts.mean():.2f}",
                     int(np.sum(edge_counts == 4))],
                    ["node-disjoint", f"{node_counts.mean():.2f}",
                     int(np.sum(node_counts == 4))],
                ],
                title="D3: edge- vs node-disjoint multipath",
            ),
        )
        # Node-disjointness is stricter: never more paths.
        assert np.all(node_counts <= edge_counts)
        # Both find multipath in a LEO mesh.
        assert edge_counts.mean() > 2.0


class TestD4RelayDensity:
    def test_bench_relay_density_sweep(self, benchmark):
        """D4: BP latency improves (weakly) with relay density."""
        spacings = (4.0, 2.0, 1.0)

        def run():
            medians = {}
            for spacing in spacings:
                scale = ScenarioScale(
                    name=f"relay-{spacing}",
                    num_cities=100,
                    num_pairs=80,
                    relay_spacing_deg=spacing,
                    num_snapshots=1,
                )
                scenario = Scenario.paper_default("starlink", scale)
                series = compute_rtt_series_multi(
                    scenario, [ConnectivityMode.BP_ONLY]
                )[ConnectivityMode.BP_ONLY]
                finite = series.rtt_ms[np.isfinite(series.rtt_ms)]
                medians[spacing] = float(np.median(finite))
            return medians

        medians = benchmark.pedantic(run, rounds=1, iterations=1)
        _write(
            "ablation_d4_relay_density",
            format_table(
                ["relay spacing (deg)", "median BP RTT (ms)"],
                [[f"{s:g}", f"{medians[s]:.2f}"] for s in spacings],
                title="D4: relay-grid density vs BP latency",
            ),
        )
        # Denser grid is a superset: median RTT must not increase.
        assert medians[1.0] <= medians[4.0] + 1e-6

    def test_bench_relay_density_vs_disconnected(self, benchmark):
        """Denser relays keep more satellites attached under BP."""

        def run():
            fractions = {}
            for spacing in (4.0, 1.0):
                scale = ScenarioScale(
                    name=f"relay-{spacing}",
                    num_cities=100,
                    num_pairs=10,
                    relay_spacing_deg=spacing,
                    num_snapshots=1,
                )
                scenario = Scenario.paper_default("starlink", scale)
                graph = scenario.graph_at(0.0, ConnectivityMode.BP_ONLY)
                fractions[spacing] = graph.satellite_component_stats()[
                    "disconnected_fraction"
                ]
            return fractions

        fractions = benchmark.pedantic(run, rounds=1, iterations=1)
        _write(
            "ablation_d4_disconnected",
            format_table(
                ["relay spacing (deg)", "BP disconnected satellites"],
                [[f"{s:g}", f"{100 * fractions[s]:.1f}%"] for s in (4.0, 1.0)],
                title="D4: relay density vs stranded satellites",
            ),
        )
        assert fractions[1.0] <= fractions[4.0]


class TestD5AircraftDensity:
    def test_bench_aircraft_density_vs_bp_reachability(self, benchmark):
        """D5: transoceanic BP connectivity needs the aircraft relays."""
        scale = ScenarioScale(
            name="aircraft-ablation",
            num_cities=100,
            num_pairs=120,
            relay_spacing_deg=2.0,
            num_snapshots=2,
            snapshot_interval_s=3600.0,
        )

        def run():
            outcome = {}
            for density in (0.0, 0.25, 1.0):
                scenario = replace(
                    Scenario.paper_default("starlink", scale),
                    aircraft_density_scale=density,
                    use_aircraft=density > 0,
                )
                series = compute_rtt_series_multi(
                    scenario, [ConnectivityMode.BP_ONLY]
                )[ConnectivityMode.BP_ONLY]
                outcome[density] = series.reachable_fraction()
            return outcome

        reachability = benchmark.pedantic(run, rounds=1, iterations=1)
        _write(
            "ablation_d5_aircraft",
            format_table(
                ["aircraft density", "BP reachable (pair,snapshot) fraction"],
                [[f"{d:g}x", f"{reachability[d]:.3f}"] for d in (0.0, 0.25, 1.0)],
                title="D5: aircraft-relay density vs BP reachability",
            ),
        )
        assert reachability[0.0] < reachability[1.0]
        assert reachability[0.25] <= reachability[1.0] + 1e-9


class TestD6Allocator:
    def test_bench_maxmin_vs_equal_split(self, benchmark, hybrid_graph, tp_scenario):
        """D6: max-min is work-conserving; equal-split leaves capacity idle."""
        routing = route_traffic(hybrid_graph, tp_scenario.pairs, k=1)

        def run():
            maxmin = evaluate_throughput(
                hybrid_graph, tp_scenario.pairs, k=1, routing=routing
            ).aggregate_gbps
            equal = evaluate_throughput(
                hybrid_graph,
                tp_scenario.pairs,
                k=1,
                routing=routing,
                allocator=equal_split_allocation,
            ).aggregate_gbps
            return maxmin, equal

        maxmin, equal = benchmark.pedantic(run, rounds=1, iterations=1)
        _write(
            "ablation_d6_allocator",
            format_table(
                ["allocator", "aggregate throughput (Gbps)"],
                [
                    ["max-min fair (paper)", f"{maxmin:.0f}"],
                    ["equal split", f"{equal:.0f}"],
                    ["max-min advantage", f"{maxmin / equal:.2f}x"],
                ],
                title="D6: allocation scheme vs throughput",
            ),
        )
        # Equal split can never beat max-min (it is a feasible allocation
        # dominated by progressive filling).
        assert maxmin >= equal * (1 - 1e-9)


class TestD7SatelliteCap:
    def test_bench_per_satellite_cap(self, benchmark, tp_scenario):
        """D7: a per-satellite radio cap amplifies the hybrid advantage.

        BP transit traffic crosses each relay satellite's radio front-end
        twice (up + down); hybrid transit rides the ISLs. Bounding the
        satellite's aggregate radio throughput therefore hits BP harder —
        one candidate explanation for the paper's larger full-scale
        ratios.
        """
        bp_graph = tp_scenario.graph_at(0.0, ConnectivityMode.BP_ONLY)
        hybrid_graph = tp_scenario.graph_at(0.0, ConnectivityMode.HYBRID)

        def run():
            out = {}
            for cap in (None, 40e9, 20e9):
                bp = evaluate_throughput(
                    bp_graph, tp_scenario.pairs, k=4, satellite_radio_cap_bps=cap
                ).aggregate_gbps
                hybrid = evaluate_throughput(
                    hybrid_graph, tp_scenario.pairs, k=4, satellite_radio_cap_bps=cap
                ).aggregate_gbps
                out[cap] = (bp, hybrid)
            return out

        results = benchmark.pedantic(run, rounds=1, iterations=1)
        rows = []
        ratios = {}
        for cap, (bp, hybrid) in results.items():
            label = "none (paper)" if cap is None else f"{cap / 1e9:.0f} Gbps"
            ratios[cap] = hybrid / bp
            rows.append([label, f"{bp:.0f}", f"{hybrid:.0f}", f"{hybrid / bp:.2f}x"])
        _write(
            "ablation_d7_satellite_cap",
            format_table(
                ["per-satellite radio cap", "BP (Gbps)", "hybrid (Gbps)", "hybrid/BP"],
                rows,
                title="D7: per-satellite radio capacity cap (k=4)",
            ),
        )
        # The cap can only reduce throughput...
        assert results[20e9][0] <= results[None][0] * (1 + 1e-9)
        assert results[20e9][1] <= results[None][1] * (1 + 1e-9)
        # ...and it widens the hybrid advantage.
        assert ratios[20e9] > ratios[None]


class TestD8BeamLimit:
    def test_bench_beam_limit(self, benchmark, tp_scenario):
        """D8: finite beam counts squeeze BP before they squeeze hybrid.

        BP needs two beams per transit bounce at every relay satellite;
        hybrid needs beams only at the endpoints. Tightening the
        per-satellite GT budget therefore widens the hybrid advantage.
        """

        def run():
            out = {}
            for beams in (None, 16, 8):
                scenario = replace(tp_scenario, max_gts_per_satellite=beams)
                bp_graph = scenario.graph_at(0.0, ConnectivityMode.BP_ONLY)
                hy_graph = scenario.graph_at(0.0, ConnectivityMode.HYBRID)
                bp = evaluate_throughput(bp_graph, scenario.pairs, k=4).aggregate_gbps
                hy = evaluate_throughput(hy_graph, scenario.pairs, k=4).aggregate_gbps
                reach = bp_graph.satellite_component_stats()["disconnected_fraction"]
                out[beams] = (bp, hy, reach)
            return out

        results = benchmark.pedantic(run, rounds=1, iterations=1)
        rows = []
        for beams, (bp, hy, stranded) in results.items():
            label = "unbounded (paper)" if beams is None else f"{beams} beams"
            rows.append(
                [label, f"{bp:.0f}", f"{hy:.0f}", f"{hy / bp:.2f}x",
                 f"{100 * stranded:.0f}%"]
            )
        _write(
            "ablation_d8_beam_limit",
            format_table(
                ["per-satellite GT budget", "BP (Gbps)", "hybrid (Gbps)",
                 "hybrid/BP", "BP stranded sats"],
                rows,
                title="D8: finite beam counts (k=4)",
            ),
        )
        # Tighter beam budgets can only remove edges.
        assert results[8][0] <= results[None][0] * (1 + 1e-9)
        assert results[8][1] <= results[None][1] * (1 + 1e-9)


class TestD9TrafficModel:
    def test_bench_uniform_vs_gravity_traffic(self, benchmark):
        """D9: does the paper's uniform pair sampling drive its ratios?

        The gravity model concentrates traffic on large metros. Under it
        first-hop contention rises for both networks, so the hybrid/BP
        ratio should stay in the same regime — evidence the paper's
        conclusion is not an artifact of uniform sampling.
        """
        scale = ScenarioScale(
            name="traffic-model",
            num_cities=150,
            num_pairs=400,
            relay_spacing_deg=2.0,
            num_snapshots=1,
        )

        def run():
            out = {}
            for weighting in ("uniform", "gravity"):
                scenario = replace(
                    Scenario.paper_default("starlink", scale),
                    traffic_weighting=weighting,
                )
                bp = evaluate_throughput(
                    scenario.graph_at(0.0, ConnectivityMode.BP_ONLY),
                    scenario.pairs,
                    k=4,
                ).aggregate_gbps
                hybrid = evaluate_throughput(
                    scenario.graph_at(0.0, ConnectivityMode.HYBRID),
                    scenario.pairs,
                    k=4,
                ).aggregate_gbps
                out[weighting] = (bp, hybrid)
            return out

        results = benchmark.pedantic(run, rounds=1, iterations=1)
        rows = [
            [weighting, f"{bp:.0f}", f"{hybrid:.0f}", f"{hybrid / bp:.2f}x"]
            for weighting, (bp, hybrid) in results.items()
        ]
        _write(
            "ablation_d9_traffic_model",
            format_table(
                ["traffic model", "BP (Gbps)", "hybrid (Gbps)", "hybrid/BP"],
                rows,
                title="D9: uniform (paper) vs gravity pair sampling (k=4)",
            ),
        )
        for weighting, (bp, hybrid) in results.items():
            assert hybrid > bp, weighting
        # The conclusion holds under both traffic models (same regime).
        uniform_ratio = results["uniform"][1] / results["uniform"][0]
        gravity_ratio = results["gravity"][1] / results["gravity"][0]
        assert 0.5 < gravity_ratio / uniform_ratio < 2.0
