"""Differential tests for the routing and allocation fast paths.

The throughput fast path rewrote two hot loops:

* :func:`repro.flows.routing.route_traffic_multi_k` batches round 1 of
  the greedy edge-disjoint scheme by source city instead of running one
  independent :func:`repro.network.paths.k_edge_disjoint_paths` search
  per pair;
* :func:`repro.flows.maxmin.max_min_fair_allocation` freezes saturated
  flows with vectorized bincounts instead of per-flow loops.

Both are pure optimisations: their outputs must be indistinguishable
from the straightforward reference implementations. These suites assert
that equivalence directly — randomized pair subsets and k values against
the per-pair path search, and hypothesis-generated flow sets against a
loop-based progressive-filling reference — plus the counter contract
that makes the fast path observable (k = 1 routes with exactly one
batched Dijkstra per unique source city and zero per-pair searches).

Rounds 2..k additionally bound each per-pair search by
``_ROUND_SLACK`` times the previous round's length and rerun it without
a bound on a miss; hand-built graphs pin the near-tie, retry and
run-out-of-paths cases of that bound against the unbounded reference.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flows import routing
from repro.flows.maxmin import max_min_fair_allocation
from repro.flows.routing import route_traffic, route_traffic_multi_k
from repro.flows.traffic import CityPair
from repro.ground.stations import StationTable
from repro.network.graph import ConnectivityMode, SnapshotGraph
from repro.network.paths import k_edge_disjoint_paths
from repro.obs import observe
from tests.reference_graph import graph_from_rows

# ---------------------------------------------------------------------------
# Routing: source-batched rounds vs the per-pair reference search.
# ---------------------------------------------------------------------------


def _assert_matches_reference(graph, pairs, k):
    """route_traffic == one k_edge_disjoint_paths call per pair.

    Node tuples, edge ids and lengths must be identical: the bounded
    rounds sum each path in the same order as the unbounded reference.
    """
    routed = route_traffic(graph, pairs, k=k)
    by_pair = {}
    for subflow in routed.subflows:
        by_pair.setdefault(subflow.pair_index, []).append(subflow)
    matrix = graph.matrix()
    for pidx, pair in enumerate(pairs):
        reference = k_edge_disjoint_paths(
            matrix, graph.gt_node(pair.a), graph.gt_node(pair.b), k
        )
        if not reference:
            assert pidx in routed.unrouted_pairs
            assert pidx not in by_pair
            continue
        got = by_pair[pidx]
        assert len(got) == len(reference)
        for ours, theirs in zip(got, reference):
            nodes = np.asarray(theirs.nodes)
            assert ours.path.nodes == theirs.nodes
            np.testing.assert_array_equal(
                ours.edge_ids, graph.edge_ids_for_pairs(nodes[:-1], nodes[1:])
            )
            assert ours.path.length_m == theirs.length_m
    return routed


def _hand_graph(num_sats: int, num_cities: int, edges) -> SnapshotGraph:
    """A graph over satellites ``[0, num_sats)`` then cities, from
    ``(u, v, metres)`` rows; cities are the only GTs."""
    stations = StationTable(
        lats=np.zeros(num_cities),
        lons=np.zeros(num_cities),
        altitudes=np.zeros(num_cities),
        city_count=num_cities,
        relay_count=0,
    )
    return graph_from_rows(
        [e[:2] for e in edges],
        [e[2] for e in edges],
        num_sats=num_sats,
        stations=stations,
    )


#: Edge lengths with no exact binary form, so sums of the same terms in
#: a different order can differ in the last bit.
_WEIGHTS_M = (100.1, 200.3, 300.7, 700.9, 1100.3, 1300.1, 2900.7)


@st.composite
def _near_tie_graphs(draw):
    """Random city/satellite graphs built around mirrored weight pairs.

    Each "mirror" joins satellites a and b through two distinct
    satellites x and y with lengths (p, q) and (q, p): two equal-hop
    routes whose sums agree in exact arithmetic. Further random edges
    connect everything else, so later rounds fall back on longer
    detours (some past ``_ROUND_SLACK``) or run out of paths.
    """
    num_sats = draw(st.integers(min_value=4, max_value=9))
    num_cities = draw(st.integers(min_value=2, max_value=4))
    weight = st.sampled_from(_WEIGHTS_M)
    edges: dict = {}

    def add(u, v, metres):
        if u != v:
            edges.setdefault((min(u, v), max(u, v)), metres)

    sat = st.integers(min_value=0, max_value=num_sats - 1)
    ends = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        a, b, x, y = draw(st.lists(sat, min_size=4, max_size=4, unique=True))
        p, q = draw(weight), draw(weight)
        add(a, x, p), add(x, b, q), add(a, y, q), add(y, b, p)
        ends += [a, b]
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        add(draw(sat), draw(sat), draw(weight))
    # Cities hang mostly off mirror ends, so their routes cross mirrors.
    uplink = st.one_of(st.sampled_from(ends), sat)
    for city in range(num_cities):
        for s in draw(st.lists(uplink, min_size=1, max_size=4, unique=True)):
            add(num_sats + city, s, draw(weight))
    rows = [(u, v, w) for (u, v), w in sorted(edges.items())]
    pairs = [
        CityPair(a, b, 0.0)
        for a in range(num_cities)
        for b in range(num_cities)
        if a != b
    ]
    return _hand_graph(num_sats, num_cities, rows), pairs


#: Every mode on the full ground segment, plus fig6/fig8's ISL network
#: (no relays or aircraft: cities are the only GTs).
_FULL_PAIR_GRAPHS = [
    pytest.param(mode, False, id=f"ConnectivityMode.{mode.name}")
    for mode in ConnectivityMode
] + [
    pytest.param(
        ConnectivityMode.ISL_ONLY, True, id="ConnectivityMode.ISL_ONLY-cities-only"
    )
]


class TestRoutingMatchesPerPairReference:
    @pytest.mark.parametrize("mode, cities_only", _FULL_PAIR_GRAPHS)
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_full_pair_list(self, tiny_scenario, mode, cities_only, k):
        # t = 0 is the mirror-symmetric Walker snapshot, where relay
        # detours tie to the last ulp (BP at k = 2 and 4 in particular).
        scenario = tiny_scenario
        if cities_only:
            scenario = replace(tiny_scenario, use_relays=False, use_aircraft=False)
        graph = scenario.graph_at(0.0, mode)
        _assert_matches_reference(graph, scenario.pairs, k)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_pair_subsets(self, tiny_scenario, seed):
        """Randomized subsets exercise sparse / duplicate-source groupings."""
        rng = np.random.default_rng(seed)
        graph = tiny_scenario.graph_at(
            float(tiny_scenario.times_s[seed % len(tiny_scenario.times_s)]),
            ConnectivityMode.HYBRID,
        )
        size = int(rng.integers(1, len(tiny_scenario.pairs) + 1))
        chosen = rng.choice(len(tiny_scenario.pairs), size=size, replace=False)
        pairs = [tiny_scenario.pairs[i] for i in chosen]
        _assert_matches_reference(graph, pairs, k=int(rng.integers(1, 5)))

    def test_multi_k_matches_separate_calls(self, tiny_scenario):
        """route_traffic_multi_k == independent route_traffic per k."""
        graph = tiny_scenario.graph_at(0.0, ConnectivityMode.HYBRID)
        pairs = tiny_scenario.pairs
        combined = route_traffic_multi_k(graph, pairs, (1, 4))
        for k in (1, 4):
            separate = route_traffic(graph, pairs, k=k)
            assert combined[k].unrouted_pairs == separate.unrouted_pairs
            assert len(combined[k].subflows) == len(separate.subflows)
            for ours, theirs in zip(combined[k].subflows, separate.subflows):
                assert ours.pair_index == theirs.pair_index
                assert ours.path.nodes == theirs.path.nodes
                np.testing.assert_array_equal(ours.edge_ids, theirs.edge_ids)


class TestBoundedRounds:
    """Rounds 2..k searched within a bound, against the unbounded search."""

    @given(case=_near_tie_graphs(), k=st.integers(min_value=2, max_value=4))
    @settings(max_examples=150, deadline=None)
    def test_near_tie_graphs(self, case, k):
        graph, pairs = case
        _assert_matches_reference(graph, pairs, k)

    def test_round_past_the_bound_is_retried(self):
        # Cities 3 and 4: round 1 via satellite 0 (2 km), round 2 via
        # satellite 1 (10 km), far beyond _ROUND_SLACK x 2 km.
        graph = _hand_graph(
            3, 2,
            [(3, 0, 1000.0), (0, 4, 1000.0), (3, 1, 5000.0), (1, 4, 5000.0)],
        )
        assert 10_000.0 > routing._ROUND_SLACK * 2000.0
        with observe() as registry:
            routed = _assert_matches_reference(graph, [CityPair(0, 1, 0.0)], 2)
        assert [sf.path.length_m for sf in routed.subflows] == [2000.0, 10_000.0]
        assert registry.snapshot()["counters"]["routing.pair_retries"] > 0
        assert routed.retries == 1

    def test_pair_cut_off_by_round_one_keeps_one_subflow(self):
        # Satellite 0 is the only way between the cities.
        graph = _hand_graph(2, 2, [(2, 0, 1000.0), (0, 3, 1000.0), (0, 1, 10.0)])
        with observe() as registry:
            routed = _assert_matches_reference(graph, [CityPair(0, 1, 0.0)], 4)
        assert len(routed.subflows) == 1
        assert all(np.isfinite(sf.path.length_m) for sf in routed.subflows)
        counters = registry.snapshot()["counters"]
        # One bounded round missed, its unbounded rerun found nothing.
        assert counters["routing.pair_dijkstras"] == 1
        assert counters["routing.pair_retries"] == 1


class TestRoutingCounterContract:
    """The fast path's shape is asserted, not assumed, via obs counters."""

    def test_k1_is_one_dijkstra_per_unique_source(self, tiny_scenario):
        graph = tiny_scenario.graph_at(0.0, ConnectivityMode.HYBRID)
        pairs = tiny_scenario.pairs
        unique_sources = len({pair.a for pair in pairs})
        with observe() as registry:
            route_traffic(graph, pairs, k=1)
        counters = registry.snapshot()["counters"]
        assert counters["routing.batched_dijkstras"] == unique_sources
        assert "routing.pair_dijkstras" not in counters

    def test_k4_adds_per_pair_searches_only_for_rounds_past_one(
        self, tiny_scenario
    ):
        graph = tiny_scenario.graph_at(0.0, ConnectivityMode.HYBRID)
        pairs = tiny_scenario.pairs
        unique_sources = len({pair.a for pair in pairs})
        with observe() as registry:
            routed = route_traffic(graph, pairs, k=4)
        counters = registry.snapshot()["counters"]
        # Round 1 stays batched even at k = 4 ...
        assert counters["routing.batched_dijkstras"] == unique_sources
        # ... and rounds 2..4 run at most 4 per-pair searches per pair
        # (the failed search that ends a pair's sequence also counts).
        routable = len(pairs) - len(routed.unrouted_pairs)
        assert 0 < counters["routing.pair_dijkstras"] <= 4 * routable

    def test_multi_k_shares_round_one(self, tiny_scenario):
        graph = tiny_scenario.graph_at(0.0, ConnectivityMode.HYBRID)
        pairs = tiny_scenario.pairs
        # Cut the first pair's source off: every pair that names it is unrouted.
        kept = (graph.edges != graph.gt_node(pairs[0].a)).all(axis=1)
        graph = graph_from_rows(
            graph.edges[kept],
            graph.edge_dist_m[kept],
            num_sats=graph.num_sats,
            stations=graph.stations,
            mode=graph.mode,
        )
        unique_sources = len({pair.a for pair in pairs})
        with observe() as registry:
            routed = route_traffic_multi_k(graph, pairs, (1, 4))
        counters = registry.snapshot()["counters"]
        # One batched sweep serves both k values ...
        assert counters["routing.batched_dijkstras"] == unique_sources
        # ... and decides, once per call, which pairs are unrouted.
        unrouted = routed[1].unrouted_pairs
        assert unrouted and routed[4].unrouted_pairs == unrouted
        assert counters["routing.unrouted_pairs"] == len(unrouted)


# ---------------------------------------------------------------------------
# Max-min allocation: vectorized freeze vs a loop-based reference.
# ---------------------------------------------------------------------------


def _reference_max_min(flow_edges, capacities):
    """Progressive filling with per-flow loops — the textbook version.

    Same algorithm and same saturation criteria as the vectorized
    implementation, but every aggregate (per-link active count, freeze
    bookkeeping) is computed with plain Python loops so a bug in the
    bincount machinery cannot hide in a shared code path.
    """
    eps = 1e-12
    n_flows = len(flow_edges)
    capacities = np.asarray(capacities, dtype=float)
    rates = np.zeros(n_flows)
    remaining = capacities.copy()
    active = [True] * n_flows
    rounds = 0
    while any(active):
        counts = np.zeros(len(capacities))
        for i, edges in enumerate(flow_edges):
            if active[i]:
                for edge in edges:
                    counts[edge] += 1.0
        used = counts > eps
        if not used.any():
            break
        headroom = np.full(len(capacities), np.inf)
        for edge in np.flatnonzero(used):
            headroom[edge] = remaining[edge] / max(counts[edge], eps)
        increment = max(float(headroom.min()), 0.0)
        if not np.isfinite(headroom.min()):
            break
        for i in range(n_flows):
            if active[i]:
                rates[i] += increment
        remaining -= counts * increment
        rounds += 1
        saturated = used & (remaining <= eps * capacities)
        if not saturated.any():
            saturated = used & (headroom <= increment * (1.0 + 1e-9))
        for i, edges in enumerate(flow_edges):
            if active[i] and any(saturated[edge] for edge in edges):
                active[i] = False
    return rates, capacities - remaining, rounds


@st.composite
def _flow_problems(draw):
    """Random (flow_edges, capacities) with integer capacities.

    Integer capacities keep both implementations' floating
    error far below the comparison tolerance; the vectorized freeze
    subtracts grouped (bincount) where the reference subtracts per flow,
    so bit-identity is not guaranteed — allclose at 1e-9 is.
    """
    n_edges = draw(st.integers(min_value=3, max_value=12))
    n_flows = draw(st.integers(min_value=1, max_value=8))
    flow_edges = []
    for _ in range(n_flows):
        edges = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_edges - 1),
                min_size=1,
                max_size=min(n_edges, 5),
                unique=True,
            )
        )
        flow_edges.append(np.asarray(edges, dtype=np.int64))
    capacities = np.asarray(
        draw(
            st.lists(
                st.integers(min_value=1, max_value=50),
                min_size=n_edges,
                max_size=n_edges,
            )
        ),
        dtype=float,
    )
    return flow_edges, capacities


class TestMaxMinMatchesLoopReference:
    @given(problem=_flow_problems())
    @settings(max_examples=120, deadline=None)
    def test_unweighted(self, problem):
        flow_edges, capacities = problem
        result = max_min_fair_allocation(flow_edges, capacities)
        ref_rates, ref_loads, ref_rounds = _reference_max_min(
            flow_edges, capacities
        )
        np.testing.assert_allclose(result.rates, ref_rates, rtol=0, atol=1e-9)
        np.testing.assert_allclose(
            result.link_loads, ref_loads, rtol=0, atol=1e-9
        )
        assert result.bottleneck_rounds == ref_rounds

    @given(problem=_flow_problems())
    @settings(max_examples=60, deadline=None)
    def test_feasible_and_pareto(self, problem):
        """Every allocation is feasible and leaves no flow raisable."""
        flow_edges, capacities = problem
        result = max_min_fair_allocation(flow_edges, capacities)
        loads = np.zeros(len(capacities))
        for rate, edges in zip(result.rates, flow_edges):
            loads[edges] += rate
        assert np.all(loads <= capacities * (1 + 1e-9) + 1e-9)
        # Pareto: each flow crosses at least one (numerically) full link.
        for rate, edges in zip(result.rates, flow_edges):
            slack = capacities[edges] - loads[edges]
            assert slack.min() <= 1e-6 * max(capacities.max(), 1.0)
