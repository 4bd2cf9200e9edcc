"""Per-layer metrics from a traced run's spans and the program's counters.

Layers are named by the program's modules. Time and work counts of the
sweep layers are per *evaluation* (one snapshot time with both modes),
averaged over whole passes of the workload's snapshot grid, so runs of
different lengths compare directly and counts repeat exactly for one
seed. Set-up layers are measured once per run. A layer the workload does
not exercise reports 0, and so does a ratio whose base is 0.

A span's self time is its duration minus the time its child spans
cover. The layer → end-to-end mapping is in this directory's README.
"""

from __future__ import annotations

from collections import defaultdict

#: Paper-scale reference sizes for the projection (ROADMAP: 1,000
#: cities, 0.5 degree relays, 5,000 pairs, 96 snapshots x {BP, hybrid}).
PAPER_EDGES = 566_000
PAPER_SOURCES = 1_000
PAPER_PAIRS = 5_000
PAPER_SNAPSHOTS = 96
PAPER_MODES = 2
#: Per-pair searches of one k = 4 evaluation when a workload routes none.
DEFAULT_SEARCHES_PER_PAIR = 3.0

#: (name, unit) of every per-layer metric, in report order.
METRICS = (
    ("ground.build_s", "s"),
    ("ground.stations", "count"),
    ("traffic.sample_s", "s"),
    ("engine.static_s", "s"),
    ("engine.frame_s", "s/eval"),
    ("engine.frames_built", "count/eval"),
    ("engine.frame_hit_rate", "ratio"),
    ("engine.assembly_s", "s/eval"),
    ("graph.csr_s", "s/eval"),
    ("graph.nodes.bp", "count"),
    ("graph.edges.bp", "count"),
    ("graph.nodes.hybrid", "count"),
    ("graph.edges.hybrid", "count"),
    ("pipeline.dijkstra_s", "s/eval"),
    ("pipeline.sources", "count/eval"),
    ("pipeline.source_edges", "count/eval"),
    ("pipeline.ns_per_source_edge", "ns"),
    ("routing.s", "s/eval"),
    ("routing.batched_dijkstra_s", "s/eval"),
    ("routing.batched_sources", "count/eval"),
    ("routing.pair_dijkstra_s", "s/eval"),
    ("routing.pair_searches", "count/eval"),
    ("routing.ms_per_pair_search", "ms"),
    ("routing.self_s", "s/eval"),
    ("routing.subflows_k1", "count/eval"),
    ("routing.subflows_k4", "count/eval"),
    ("routing.unrouted_pairs", "count/eval"),
    ("routing.paths_per_search", "ratio"),
    ("maxmin.s", "s/eval"),
    ("maxmin.calls", "count/eval"),
    ("maxmin.rounds", "count/eval"),
    ("maxmin.incidences", "count/eval"),
    ("maxmin.us_per_round", "us"),
    ("throughput.self_s", "s/eval"),
    ("parallel.self_s", "s/eval"),
    ("checkpoint.store_s", "s/eval"),
    ("checkpoint.shards_written", "count/eval"),
    ("checkpoint.bytes_written", "B/eval"),
    ("checkpoint.ms_per_shard", "ms"),
    ("trace.eval_s", "s/eval"),
    ("trace.overhead_frac", "ratio"),
    ("trace.intended_share", "ratio"),
    ("projection.fig2_snapshot_mode_s", "s"),
    ("projection.fig2_day_s", "s"),
    ("projection.fig4_k4_eval_s", "s"),
)

UNITS = dict(METRICS)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class _SpanIndex:
    """Durations, self times and ancestry of a recorded span list."""

    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.duration = [s["end"] - s["start"] for s in spans]
        covered = defaultdict(float)
        for s, duration in zip(spans, self.duration):
            if s["parent"] is not None:
                covered[s["parent"]] += duration
        self.self_time = [d - covered[i] for i, d in enumerate(self.duration)]

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def total(self, name: str, self_only: bool = False) -> float:
        times = self.self_time if self_only else self.duration
        return sum(times[s["id"]] for s in self.named(name))

    def under(self, span: dict, name: str) -> bool:
        parent = span["parent"]
        while parent is not None:
            if self.spans[parent]["name"] == name:
                return True
            parent = self.spans[parent]["parent"]
        return False

    def attr_sum(self, spans, key: str) -> float:
        return float(sum(s["attrs"].get(key, 0) for s in spans))


def layer_metrics(
    spans: list[dict],
    counters: dict,
    evaluations: int,
    overhead_frac: float,
    stresses: str,
) -> dict:
    """Every per-layer metric as ``{name: value}`` (units in :data:`UNITS`)."""
    index = _SpanIndex(spans)
    per_eval = 1.0 / evaluations
    m: dict[str, float] = {}

    ground = index.named("ground.build")
    m["ground.build_s"] = index.total("ground.build")
    m["ground.stations"] = index.attr_sum(ground[-1:], "stations")
    m["traffic.sample_s"] = index.total("traffic.sample")
    m["engine.static_s"] = index.total("engine.static")

    hits = counters.get("engine.frame_hits", 0)
    misses = counters.get("engine.frame_misses", 0)
    m["engine.frame_s"] = index.total("engine.frame_at") * per_eval
    m["engine.frames_built"] = misses * per_eval
    m["engine.frame_hit_rate"] = _ratio(hits, hits + misses)
    m["engine.assembly_s"] = index.total("engine.graph_at", self_only=True) * per_eval
    m["graph.csr_s"] = index.total("graph.matrix") * per_eval
    graphs = index.named("engine.graph_at")
    for mode in ("bp", "hybrid"):
        of_mode = [g for g in graphs if g["attrs"].get("mode") == mode]
        for key in ("nodes", "edges"):
            m[f"graph.{key}.{mode}"] = _ratio(index.attr_sum(of_mode, key), len(of_mode))

    dijkstras = index.named("dijkstra")
    routed = [d for d in dijkstras if index.under(d, "routing")]
    pipeline = [d for d in dijkstras if not index.under(d, "routing")]
    batched = [d for d in routed if not d["attrs"]["min_only"]]
    per_pair = [d for d in routed if d["attrs"]["min_only"]]

    def busy(group):
        return sum(index.duration[d["id"]] for d in group)

    def source_edges(group):
        return float(sum(d["attrs"]["sources"] * d["attrs"]["nnz"] for d in group))

    m["pipeline.dijkstra_s"] = busy(pipeline) * per_eval
    m["pipeline.sources"] = index.attr_sum(pipeline, "sources") * per_eval
    m["pipeline.source_edges"] = source_edges(pipeline) * per_eval
    m["pipeline.ns_per_source_edge"] = 1e9 * _ratio(busy(pipeline), source_edges(pipeline))

    routing = index.named("routing")
    searches = counters.get("routing.pair_dijkstras", 0)
    m["routing.s"] = index.total("routing") * per_eval
    m["routing.batched_dijkstra_s"] = busy(batched) * per_eval
    m["routing.batched_sources"] = counters.get("routing.batched_dijkstras", 0) * per_eval
    m["routing.pair_dijkstra_s"] = busy(per_pair) * per_eval
    m["routing.pair_searches"] = searches * per_eval
    m["routing.ms_per_pair_search"] = 1e3 * _ratio(busy(per_pair), searches)
    m["routing.self_s"] = index.total("routing", self_only=True) * per_eval
    m["routing.subflows_k1"] = index.attr_sum(routing, "subflows_k1") * per_eval
    m["routing.subflows_k4"] = index.attr_sum(routing, "subflows_k4") * per_eval
    m["routing.unrouted_pairs"] = index.attr_sum(routing, "unrouted") * per_eval
    m["routing.paths_per_search"] = _ratio(index.attr_sum(routing, "extra_paths"), searches)

    maxmin = index.named("maxmin")
    rounds = counters.get("maxmin.bottleneck_rounds", 0)
    m["maxmin.s"] = index.total("maxmin") * per_eval
    m["maxmin.calls"] = len(maxmin) * per_eval
    m["maxmin.rounds"] = rounds * per_eval
    m["maxmin.incidences"] = index.attr_sum(maxmin, "incidences") * per_eval
    m["maxmin.us_per_round"] = 1e6 * _ratio(index.total("maxmin"), rounds)
    m["throughput.self_s"] = index.total("throughput", self_only=True) * per_eval

    m["parallel.self_s"] = index.total("sweep", self_only=True) * per_eval

    shards = index.named("checkpoint.store")
    m["checkpoint.store_s"] = index.total("checkpoint.store") * per_eval
    m["checkpoint.shards_written"] = len(shards) * per_eval
    m["checkpoint.bytes_written"] = index.attr_sum(shards, "bytes") * per_eval
    m["checkpoint.ms_per_shard"] = 1e3 * _ratio(index.total("checkpoint.store"), len(shards))

    m["trace.eval_s"] = index.total("sweep") * per_eval
    m["trace.overhead_frac"] = overhead_frac
    intended = {
        "pipeline": m["pipeline.dijkstra_s"],
        "routing.pair": m["routing.pair_dijkstra_s"],
        "engine": m["engine.frame_s"] + m["engine.assembly_s"] + m["graph.csr_s"],
    }[stresses]
    m["trace.intended_share"] = _ratio(intended, m["trace.eval_s"])

    m.update(_projection(m, 1e9 * _ratio(busy(batched), source_edges(batched))))
    return {name: float(m[name]) for name, _ in METRICS}


def _projection(m: dict, batched_ns_per_source_edge: float) -> dict:
    """Paper-scale cost from this run's normalized layer costs.

    Reported only, never gated. Dijkstra scales with sources x CSR
    entries (two per undirected edge); the per-frame graph work (frame,
    assembly, CSR) scales with the edge count. See the README for the
    formulas and how they compare with the committed full-scale logs.
    """
    paper_entries = 2.0 * PAPER_EDGES
    workload_edges = 0.5 * (m["graph.edges.bp"] + m["graph.edges.hybrid"])
    ns_per_source_edge = m["pipeline.ns_per_source_edge"] or batched_ns_per_source_edge
    graph_per_mode = (
        (m["engine.frame_s"] + m["engine.assembly_s"] + m["graph.csr_s"])
        / PAPER_MODES
        * _ratio(PAPER_EDGES, workload_edges)
    )
    snapshot_mode = ns_per_source_edge * 1e-9 * PAPER_SOURCES * paper_entries + graph_per_mode

    batched_rate = batched_ns_per_source_edge or ns_per_source_edge
    if m["routing.pair_searches"]:
        # k = 1 routes exactly one sub-flow per routed pair.
        searches_per_pair = _ratio(m["routing.pair_searches"], m["routing.subflows_k1"])
        # A per-pair search grows with the CSR entries it scans.
        search_s = m["routing.ms_per_pair_search"] * 1e-3 * _ratio(
            paper_entries, 2.0 * workload_edges
        )
    else:
        searches_per_pair = DEFAULT_SEARCHES_PER_PAIR
        search_s = ns_per_source_edge * 1e-9 * paper_entries
    fig4_k4 = (
        batched_rate * 1e-9 * PAPER_SOURCES * paper_entries
        + PAPER_PAIRS * searches_per_pair * search_s
        + graph_per_mode
    )
    return {
        "projection.fig2_snapshot_mode_s": snapshot_mode,
        "projection.fig2_day_s": PAPER_SNAPSHOTS * PAPER_MODES * snapshot_mode,
        "projection.fig4_k4_eval_s": fig4_k4,
    }
