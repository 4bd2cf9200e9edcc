"""Tests for the exact transit-GT contraction behind RTT sweeps.

RTT Dijkstra runs on :meth:`SnapshotGraph.contracted_matrix` — satellites
+ cities, with every relay and aircraft replaced by satellite-satellite
bounce edges. The contract pinned here:

* **plain reference** — ``bounce_edges`` and the whole contracted CSR
  are ``np.array_equal`` (dtypes included) to a dict-min over every
  (relay, a, b) triple in plain Python, including the packed table's
  edge slots;
* **exactness** — contracted RTTs equal a plain single-source Dijkstra
  on the physical ``graph.matrix()`` (rtol 1e-9, same ``inf`` pattern)
  across modes, aircraft on/off, GSO policy, beam limit, fiber and
  faults; a hand-built fixture checks that a bounce edge parallel to an
  ISL keeps the *minimum* (scipy's ``csr_matrix`` would sum them);
* **sharing** — graphs of one frame with the same GT-satellite filters
  share one contraction, whatever their mode;
* **frame-fed path** — the contraction an engine-built graph reads
  straight from its satellite CSR equals the one its own materialized
  table gives through the loose-rows adapter, that table is built only
  on demand and equals the monolithic reference builder's, and threads
  contracting different frames at once get the serial results;
* **guards** — RTT endpoints must be cities, and the strict graph guard
  runs in both the serial and the parallel sweep.
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse import csgraph

from repro.constants import SPEED_OF_LIGHT
from repro.context import run_context
from repro.core import scenario as scenario_module
from repro.core import parallel
from repro.core.parallel import SweepError
from repro.core.pipeline import compute_rtt_series_multi, pair_rtts_on_graph
from repro.core.scenario import Scenario, ScenarioScale
from repro.faults import FaultSpec
from repro.flows.traffic import CityPair, pair_index
from repro.ground.stations import StationTable
from repro.integrity.guards import InvariantViolation
from repro.network import contraction
from repro.network.contraction import bounce_edges, min_per_pair
from repro.network.graph import (
    _KIND_GT_SAT,
    ConnectivityMode,
    GsoProtectionPolicy,
    SnapshotGraph,
)
from repro.obs import observe
from tests.conftest import split_faults
from tests.reference_graph import build_snapshot_graph, graph_from_rows

SCALE = ScenarioScale(
    name="contraction-tiny",
    num_cities=40,
    num_pairs=10,
    relay_spacing_deg=4.0,
    num_snapshots=2,
    snapshot_interval_s=3600.0,
)


@pytest.fixture(scope="module")
def scenarios() -> dict[bool, Scenario]:
    """Scenarios keyed by aircraft on/off; engines stay warm across examples."""
    base = Scenario.paper_default("starlink", SCALE)
    return {True: base, False: dataclasses.replace(base, use_aircraft=False)}


#: Assembly variants: every filter that shapes the graph the contraction
#: sees, plus all of them at once. A ``faults`` entry is run as the run
#: context's spec.
VARIANTS = {
    "plain": {},
    "gso": {"gso_policy": GsoProtectionPolicy(min_separation_deg=20.0)},
    "beam": {"max_gts_per_satellite": 4},
    "fiber": {"fiber_max_km": 1500.0},
    "faults": {"faults": FaultSpec(sat=0.1, relay=0.2, aircraft=0.2, seed=3)},
    "combined": {
        "gso_policy": GsoProtectionPolicy(min_separation_deg=20.0),
        "max_gts_per_satellite": 4,
        "fiber_max_km": 1500.0,
        "faults": FaultSpec(sat=0.05, city=0.1, relay=0.1, seed=11),
    },
}


def plain_dijkstra_rtts(graph: SnapshotGraph, pairs) -> np.ndarray:
    """Reference: one unbatched Dijkstra per pair on the physical graph."""
    matrix = graph.matrix()
    rtts = np.empty(len(pairs))
    for i, pair in enumerate(pairs):
        dist = csgraph.dijkstra(matrix, directed=True, indices=graph.gt_node(pair.a))
        rtts[i] = 2e3 * dist[graph.gt_node(pair.b)] / SPEED_OF_LIGHT
    return rtts


class TestDifferential:
    """Contracted RTTs == plain Dijkstra on the uncontracted graph."""

    @settings(max_examples=40, deadline=None)
    @given(
        aircraft=st.booleans(),
        mode=st.sampled_from(list(ConnectivityMode)),
        variant=st.sampled_from(sorted(VARIANTS)),
        time_index=st.integers(0, SCALE.num_snapshots - 1),
        endpoints=st.lists(
            st.tuples(
                st.integers(0, SCALE.num_cities - 1),
                st.integers(0, SCALE.num_cities - 1),
            ).filter(lambda ab: ab[0] != ab[1]),
            min_size=1,
            max_size=12,
        ),
    )
    def test_matches_plain_dijkstra(
        self, scenarios, aircraft, mode, variant, time_index, endpoints
    ):
        base = scenarios[aircraft]
        assembly, faults = split_faults(VARIANTS[variant])
        scenario = base.with_assembly(**assembly)
        with run_context(faults=faults):
            graph = scenario.graph_at(float(base.times_s[time_index]), mode)
        pairs = [CityPair(a, b, 0.0) for a, b in endpoints]

        got = pair_rtts_on_graph(graph, pairs)
        want = plain_dijkstra_rtts(graph, pairs)

        np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
        finite = np.isfinite(want)
        np.testing.assert_allclose(got[finite], want[finite], rtol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(
        mode=st.sampled_from([ConnectivityMode.BP_ONLY, ConnectivityMode.HYBRID]),
        time_index=st.integers(0, SCALE.num_snapshots - 1),
        endpoints=st.lists(
            st.tuples(
                st.integers(0, SCALE.num_cities - 1),
                st.integers(0, SCALE.num_cities - 1),
            ).filter(lambda ab: ab[0] != ab[1]),
            min_size=1,
            max_size=40,
        ),
    )
    def test_vertex_cover_matches_per_source_evaluation(
        self, scenarios, mode, time_index, endpoints
    ):
        base = scenarios[True]
        graph = base.graph_at(float(base.times_s[time_index]), mode)
        pairs = [CityPair(a, b, 0.0) for a, b in endpoints]
        index = pair_index(pairs)
        cover = set(index.cover_cities.tolist())
        assert all(a in cover or b in cover for a, b in endpoints)
        assert len(cover) <= len(index.source_cities)

        got = pair_rtts_on_graph(graph, pairs)
        # Reference: one Dijkstra per distinct source, read at the target.
        dist = csgraph.dijkstra(
            graph.contracted_matrix(),
            directed=True,
            indices=graph.num_sats + index.source_cities,
        )
        rows = np.searchsorted(index.source_cities, index.sources)
        want_m = dist[rows, graph.num_sats + index.targets]
        want = np.where(np.isfinite(want_m), 2e3 * want_m / SPEED_OF_LIGHT, np.inf)
        np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
        finite = np.isfinite(want)
        np.testing.assert_allclose(got[finite], want[finite], rtol=1e-12)

    def test_contracted_graph_covers_satellites_and_cities(self, scenarios):
        graph = scenarios[True].graph_at(0.0, ConnectivityMode.BP_ONLY)
        contracted = graph.contracted_matrix()
        kept = graph.num_sats + graph.stations.city_count
        assert contracted.shape == (kept, kept)
        # Symmetric, no self-loops.
        assert (contracted != contracted.T).nnz == 0
        assert not contracted.diagonal().any()

    def test_chunked_contraction_is_identical(self, scenarios, monkeypatch):
        args = transit_csr(
            *transit_rows(scenarios[True].graph_at(0.0, ConnectivityMode.HYBRID))
        )
        whole = bounce_edges(*args)
        monkeypatch.setattr(contraction, "PAIR_CHUNK", 7)
        chunked = bounce_edges(*args)
        for got, want in zip(chunked, whole):
            np.testing.assert_array_equal(got, want)


def plain_bounce_edges(sats, transit, dist_m):
    """Reference: a dict-min over every (relay, a, b) triple, in Python."""
    neighbours: dict[int, list[tuple[int, float]]] = {}
    for sat, relay, dist in zip(sats.tolist(), transit.tolist(), dist_m.tolist()):
        neighbours.setdefault(relay, []).append((sat, dist))
    best: dict[tuple[int, int], float] = {}
    for hops in neighbours.values():
        for sat_a, dist_a in hops:
            for sat_b, dist_b in hops:
                if sat_a < sat_b:
                    pair = (sat_a, sat_b)
                    best[pair] = min(best.get(pair, np.inf), dist_a + dist_b)
    pairs = sorted(best)
    return (
        np.array([a for a, _ in pairs], dtype=np.int64),
        np.array([b for _, b in pairs], dtype=np.int64),
        np.array([best[pair] for pair in pairs], dtype=np.float64),
    )


def plain_contracted_matrix(graph: SnapshotGraph):
    """Reference CSR: dict-min over kept edges and relay triples."""
    kept = graph.num_sats + graph.stations.city_count
    lo = np.minimum(graph.edges[:, 0], graph.edges[:, 1])
    hi = np.maximum(graph.edges[:, 0], graph.edges[:, 1])
    transit = hi >= kept
    best: dict[tuple[int, int], float] = {}
    for u, v, w in zip(lo[~transit].tolist(), hi[~transit].tolist(),
                       graph.edge_dist_m[~transit].tolist()):
        best[(u, v)] = min(best.get((u, v), np.inf), w)
    bounce = plain_bounce_edges(lo[transit], hi[transit], graph.edge_dist_m[transit])
    for u, v, w in zip(*(part.tolist() for part in bounce)):
        best[(u, v)] = min(best.get((u, v), np.inf), w)
    pairs = sorted(best)
    u = np.array([a for a, _ in pairs], dtype=np.int64)
    v = np.array([b for _, b in pairs], dtype=np.int64)
    w = np.array([best[pair] for pair in pairs], dtype=np.float64)
    return sparse.csr_matrix(
        (np.concatenate([w, w]), (np.concatenate([u, v]), np.concatenate([v, u]))),
        shape=(kept, kept),
    )


def assert_identical(got, want):
    """``np.array_equal`` part by part, dtypes included."""
    assert len(got) == len(want)
    for got_part, want_part in zip(got, want):
        assert got_part.dtype == want_part.dtype
        assert np.array_equal(got_part, want_part)


def transit_rows(graph: SnapshotGraph):
    """A graph's relay and aircraft rows: satellites, transit ids, lengths."""
    kept = graph.num_sats + graph.stations.city_count
    transit = graph.edges[:, 1] >= kept
    return (
        graph.edges[transit, 0],
        graph.edges[transit, 1] - kept,
        graph.edge_dist_m[transit],
        graph.num_sats,
    )


def transit_csr(sats, transit, dist_m, num_sats):
    """``bounce_edges`` arguments for loose transit rows: their by-GT CSR."""
    num_transit = int(transit.max()) + 1 if len(transit) else 0
    by_gt = sparse.csr_matrix(
        (dist_m, (transit, sats)), shape=(num_transit, num_sats)
    )
    return by_gt.indptr, by_gt.indices, by_gt.data, num_sats


#: Scenarios pinned to the plain reference: one shell with aircraft on
#: and off, and two shells, whose relays bounce between shells.
REFERENCE_SCENARIOS = {
    "aircraft": lambda: Scenario.paper_default("starlink", SCALE),
    "no_aircraft": lambda: dataclasses.replace(
        Scenario.paper_default("starlink", SCALE), use_aircraft=False
    ),
    "two_shell": lambda: Scenario.paper_default("starlink+polar", SCALE),
}


class TestPlainReference:
    """The packed, chunked contraction == a plain Python triple loop."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_SCENARIOS))
    def test_bounce_edges_and_contracted_csr(self, name):
        scenario = REFERENCE_SCENARIOS[name]()
        for time_s in scenario.times_s:
            graphs = {
                mode: scenario.graph_at(float(time_s), mode)
                for mode in ConnectivityMode
            }
            args = transit_rows(graphs[ConnectivityMode.BP_ONLY])
            got = bounce_edges(*transit_csr(*args))
            assert len(got[0]) > 0
            assert_identical(got, plain_bounce_edges(*args[:3]))
            for graph in graphs.values():
                got_csr = graph.contracted_matrix()
                want_csr = plain_contracted_matrix(graph)
                assert got_csr.shape == want_csr.shape
                assert_identical(
                    (got_csr.indptr, got_csr.indices, got_csr.data),
                    (want_csr.indptr, want_csr.indices, want_csr.data),
                )

    def test_two_shell_has_cross_shell_bounces(self):
        scenario = REFERENCE_SCENARIOS["two_shell"]()
        first_shell = scenario.constellation.shells[0].num_satellites
        graph = scenario.graph_at(0.0, ConnectivityMode.BP_ONLY)
        a, b, _ = bounce_edges(*transit_csr(*transit_rows(graph)))
        assert np.any((a < first_shell) & (b >= first_shell))

    @pytest.mark.parametrize(
        "num_sats,sats,transit",
        [
            (5, [0, 4], [0, 0]),  # the last packed slot of row 0: pair (0, n - 1)
            (5, [3, 4, 0, 4], [0, 0, 1, 1]),  # the very last slot: (n - 2, n - 1)
            (2, [1, 0, 0, 1], [0, 0, 1, 1]),  # n = 2: a one-slot table
            (2, [0, 0], [0, 1]),  # n = 2, no GT sees two satellites
            (1, [0, 0], [0, 1]),  # n = 1: an empty table
        ],
    )
    def test_packed_slot_edges(self, num_sats, sats, transit):
        sats = np.array(sats, dtype=np.int64)
        transit = np.array(transit, dtype=np.int64)
        dist_m = np.arange(1.0, len(sats) + 1.0) * 100.0
        got = bounce_edges(*transit_csr(sats, transit, dist_m, num_sats))
        assert_identical(got, plain_bounce_edges(sats, transit, dist_m))

    def test_empty_input(self):
        empty = np.empty(0, dtype=np.int64)
        got = bounce_edges(*transit_csr(empty, empty, np.empty(0), 4))
        assert_identical(got, plain_bounce_edges(empty, empty, np.empty(0)))

    def test_counts_expanded_triples(self):
        # GT 0 sees satellites 0, 1, 2 (3 pairs), GT 1 sees 1, 3 (1 pair).
        sats = np.array([0, 1, 2, 1, 3])
        transit = np.array([0, 0, 0, 1, 1])
        with observe() as registry:
            bounce_edges(*transit_csr(sats, transit, np.ones(5), 4))
        assert registry.snapshot()["counters"]["engine.bounce_candidates"] == 4


#: GT-satellite filter sets the frame-fed path must match under.
FRAME_FED_VARIANTS = {
    name: VARIANTS[name] for name in ("plain", "gso", "beam", "fiber")
}


def csr_parts(matrix):
    return matrix.indptr, matrix.indices, matrix.data


def coo_contracted_matrix(graph: SnapshotGraph) -> sparse.csr_matrix:
    """Reference: the contraction regrouped from the edge table via COO.

    The table's GT-satellite rows are regrouped by GT with a COO -> CSR
    build, which sorts each GT's satellites; city rows stay, transit
    rows become bounce edges, and the ISL/fiber rows join them in one
    minimum per pair.
    """
    num_sats, city_count = graph.num_sats, graph.stations.city_count
    kept = num_sats + city_count
    radio = graph.edge_kind == _KIND_GT_SAT
    by_gt = sparse.csr_matrix(
        (
            graph.edge_dist_m[radio],
            (graph.edges[radio, 1] - num_sats, graph.edges[radio, 0]),
        ),
        shape=(graph.num_gts, num_sats),
    )
    indptr, sats, dists = by_gt.indptr, by_gt.indices, by_gt.data
    end = indptr[city_count]
    bounce = bounce_edges(indptr[city_count:], sats, dists, num_sats)
    cities = np.repeat(np.arange(num_sats, kept), np.diff(indptr[: city_count + 1]))
    other = ~radio
    lo, hi, w = min_per_pair(
        np.concatenate([sats[:end], bounce[0], graph.edges[other, 0]]),
        np.concatenate([cities, bounce[1], graph.edges[other, 1]]),
        np.concatenate([dists[:end], bounce[2], graph.edge_dist_m[other]]),
    )
    return sparse.csr_matrix(
        (np.concatenate([w, w]), (np.concatenate([lo, hi]), np.concatenate([hi, lo]))),
        shape=(kept, kept),
    )


class TestFrameFedContraction:
    """The frame-fed contraction and derived table against their references."""

    @pytest.mark.parametrize("variant", sorted(FRAME_FED_VARIANTS))
    @pytest.mark.parametrize("name", sorted(REFERENCE_SCENARIOS))
    def test_matches_own_rows_and_reference_table(self, name, variant):
        scenario = REFERENCE_SCENARIOS[name]().with_assembly(
            **FRAME_FED_VARIANTS[variant]
        )
        for time_s in scenario.times_s:
            for mode in ConnectivityMode:
                graph = scenario.graph_at(float(time_s), mode)
                with observe() as registry:
                    frame_fed = graph.contracted_matrix()
                    assert graph.num_edges > 0
                counters = registry.snapshot()["counters"]
                assert counters.get("engine.edge_tables", 0) == 0
                want_csr = coo_contracted_matrix(graph)
                assert_identical(csr_parts(frame_fed), csr_parts(want_csr))
                want = build_snapshot_graph(
                    scenario.constellation,
                    scenario.ground.stations_at(float(time_s)),
                    float(time_s),
                    mode,
                    gso_policy=scenario.gso_policy,
                    fiber_max_km=scenario.fiber_max_km,
                    max_gts_per_satellite=scenario.max_gts_per_satellite,
                )
                assert_identical(
                    (graph.edges, graph.edge_dist_m, graph.edge_kind),
                    (want.edges, want.edge_dist_m, want.edge_kind),
                )
                assert graph.num_edges == len(want.edges)

    def test_table_is_built_once_on_first_read(self):
        graph = Scenario.paper_default("starlink", SCALE).graph_at(
            0.0, ConnectivityMode.HYBRID
        )
        with observe() as registry:
            edges = graph.edges
            assert graph.edge_kind is graph.edge_kind
            assert graph.edges is edges
            graph.matrix()
        assert registry.snapshot()["counters"]["engine.edge_tables"] == 1

    def test_concurrent_contractions_match_serial(self):
        base = REFERENCE_SCENARIOS["two_shell"]()
        jobs = [(float(t), mode) for t in base.times_s for mode in ConnectivityMode]
        serial = [
            csr_parts(dataclasses.replace(base).graph_at(t, mode).contracted_matrix())
            for t, mode in jobs
        ]
        for _ in range(3):
            # One fresh engine per job: every thread contracts its own frame.
            graphs = [dataclasses.replace(base).graph_at(t, mode) for t, mode in jobs]
            results = [None] * len(jobs)
            barrier = threading.Barrier(len(jobs))

            def contract(slot):
                barrier.wait()
                results[slot] = csr_parts(graphs[slot].contracted_matrix())

            threads = [
                threading.Thread(target=contract, args=(slot,))
                for slot in range(len(jobs))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for got, want in zip(results, serial):
                assert_identical(got, want)


class TestReplacedGraph:
    """``dataclasses.replace`` on the parts keeps the frame, not the caches."""

    def test_dropped_rows_reach_the_contraction(self):
        scenario = Scenario.paper_default("starlink", ScenarioScale.small())
        graph = scenario.graph_at(0.0, ConnectivityMode.BP_ONLY)
        full = graph.contracted_matrix()
        graph.matrix()
        start, gts, dists = graph.sat_rows
        sats = np.repeat(np.arange(graph.num_sats), np.diff(start))[::2]
        thinned = dataclasses.replace(
            graph,
            sat_rows=(
                np.searchsorted(sats, np.arange(graph.num_sats + 1)),
                gts[::2],
                dists[::2],
            ),
        )
        assert thinned.frame is graph.frame
        assert thinned._radio_key is None
        assert thinned._contracted_cache is None and thinned._matrix_cache is None
        assert thinned.matrix().nnz < graph.matrix().nnz
        contracted = thinned.contracted_matrix()
        assert contracted.nnz < full.nnz
        kept = graph.num_sats + graph.stations.city_count
        cities = np.arange(graph.num_sats, kept)
        want = csgraph.dijkstra(thinned.matrix(), indices=cities)[:, cities]
        got = csgraph.dijkstra(contracted, indices=cities)[:, cities]
        np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
        finite = np.isfinite(want)
        np.testing.assert_allclose(got[finite], want[finite], rtol=1e-12)


def hand_built_graph(isl_m: float, extra_rows=()) -> SnapshotGraph:
    """3 satellites, 2 cities, 2 relays, and one ISL between sats 0-1.

    Node ids: satellites 0-2, cities 3-4, relays 5-6. City 3 hangs off
    satellite 0 and city 4 off satellite 1. Relay 5 bounces 0<->1 for
    500 + 500 m; relay 6 bounces 0<->1 for 700 + 900 m, 0<->2 for
    700 + 100 m and 1<->2 for 900 + 100 m. ``extra_rows`` are more
    ``(u, v, metres)`` rows.
    """
    rows = [
        (0, 3, 1000.0),
        (1, 4, 1000.0),
        (0, 5, 500.0),
        (1, 5, 500.0),
        (0, 6, 700.0),
        (1, 6, 900.0),
        (2, 6, 100.0),
        (0, 1, isl_m),
        *extra_rows,
    ]
    stations = StationTable(
        lats=np.zeros(4), lons=np.zeros(4), altitudes=np.zeros(4),
        city_count=2, relay_count=2,
    )
    return graph_from_rows(
        [row[:2] for row in rows],
        [row[2] for row in rows],
        num_sats=3,
        stations=stations,
        mode=ConnectivityMode.HYBRID,
    )


class TestHandBuiltFixture:
    def test_bounce_edges_keep_minimum_over_relays(self):
        graph = hand_built_graph(isl_m=5000.0)
        transit = graph.edges[:, 1] >= 5
        a, b, w = bounce_edges(
            *transit_csr(
                graph.edges[transit, 0],
                graph.edges[transit, 1] - 5,
                graph.edge_dist_m[transit],
                graph.num_sats,
            )
        )
        assert list(zip(a, b, w)) == [(0, 1, 1000.0), (0, 2, 800.0), (1, 2, 1000.0)]

    @pytest.mark.parametrize(
        "isl_m", [800.0, 1200.0], ids=["isl-cheaper", "isl-costlier"]
    )
    def test_parallel_isl_and_bounce_keep_minimum(self, isl_m):
        graph = hand_built_graph(isl_m)
        contracted = graph.contracted_matrix()
        assert contracted.shape == (5, 5)
        assert contracted[0, 1] == contracted[1, 0] == min(isl_m, 1000.0)
        assert contracted[0, 2] == 800.0
        pairs = [CityPair(0, 1, 0.0)]
        want = 2e3 * (1000.0 + min(isl_m, 1000.0) + 1000.0) / SPEED_OF_LIGHT
        for rtts_of in (pair_rtts_on_graph, plain_dijkstra_rtts):
            np.testing.assert_allclose(rtts_of(graph, pairs), [want], rtol=1e-12)

    def test_transit_node_with_ground_neighbour_is_rejected(self):
        graph = hand_built_graph(isl_m=800.0, extra_rows=[(3, 5, 10.0)])
        with pytest.raises(ValueError, match="non-satellite neighbour"):
            graph.contracted_matrix()

    def test_min_per_pair_is_direction_agnostic(self):
        lo, hi, w = min_per_pair(
            np.array([2, 1, 1, 3]),
            np.array([1, 2, 3, 1]),
            np.array([5.0, 4.0, 9.0, 8.0]),
        )
        assert list(zip(lo, hi, w)) == [(1, 2, 4.0), (1, 3, 8.0)]


class TestBounceSharing:
    """One contraction per (frame, GT-satellite filters), not per mode."""

    def test_modes_share_one_contraction(self):
        scenario = Scenario.paper_default("starlink", SCALE)
        with observe() as registry:
            for mode in ConnectivityMode:
                scenario.graph_at(0.0, mode).contracted_matrix()
            gso = scenario.with_assembly(gso_policy=GsoProtectionPolicy(20.0))
            gso.graph_at(0.0, ConnectivityMode.BP_ONLY).contracted_matrix()
            # Fiber adds city-city edges only: the GT-satellite block and
            # hence the bounce edges are unchanged.
            fiber = scenario.with_assembly(fiber_max_km=1500.0)
            fiber.graph_at(0.0, ConnectivityMode.HYBRID).contracted_matrix()
        snap = registry.snapshot()
        counters = snap["counters"]
        assert counters["engine.contraction_misses"] == 2
        assert counters["engine.contraction_hits"] == 3
        assert snap["spans"]["graph_build"]["count"] == 5
        assert snap["spans"]["transit_contraction"]["count"] == 2


class TestPairEndpointGuard:
    def test_relay_endpoint_is_rejected_by_name(self, tiny_scenario):
        graph = tiny_scenario.graph_at(0.0, ConnectivityMode.BP_ONLY)
        relay = graph.stations.city_count  # first relay index
        index = pair_index([CityPair(0, 1, 0.0), CityPair(0, relay, 0.0)])
        with pytest.raises(IndexError, match=f"endpoint {relay} is not a city"):
            index.gt_nodes(graph.num_sats, graph.stations.city_count)
        with pytest.raises(IndexError, match=str(relay)):
            pair_rtts_on_graph(graph, [CityPair(relay, 0, 0.0)])

    def test_negative_endpoint_is_rejected(self):
        index = pair_index([CityPair(-1, 1, 0.0)])
        with pytest.raises(IndexError, match="endpoint -1"):
            index.gt_nodes(10, 5)


@pytest.fixture
def bad_graphs(monkeypatch):
    """Every scenario graph fails the strict guard (a NaN GT position)."""
    original = scenario_module.Scenario.graph_at

    def poisoned(self, time_s, mode):
        graph = original(self, time_s, mode)
        gt_ecef = graph.gt_ecef.copy()
        gt_ecef[0] = np.nan
        return dataclasses.replace(graph, gt_ecef=gt_ecef)

    monkeypatch.setattr(scenario_module.Scenario, "graph_at", poisoned)


class TestStrictGuardInBothSweeps:
    """The serial and the parallel sweep run the same strict evaluator."""

    MODE = ConnectivityMode.BP_ONLY

    def test_direct_evaluation_raises(self, tiny_scenario, bad_graphs):
        # What the outage, GSO and fiber experiments call per graph.
        graph = tiny_scenario.graph_at(0.0, self.MODE)
        with pytest.raises(InvariantViolation, match="non-finite position"):
            pair_rtts_on_graph(graph, tiny_scenario.pairs)
        with run_context(strict=False):
            assert len(pair_rtts_on_graph(graph, tiny_scenario.pairs)) == len(
                tiny_scenario.pairs
            )

    def test_serial_sweep_raises(self, tiny_scenario, bad_graphs):
        with pytest.raises(InvariantViolation, match="non-finite position"):
            compute_rtt_series_multi(tiny_scenario, [self.MODE])

    def test_parallel_sweep_raises(self, tiny_scenario, bad_graphs, monkeypatch):
        monkeypatch.setattr(parallel, "MAX_ATTEMPTS", 1)
        monkeypatch.setattr(parallel, "BACKOFF_BASE_S", 0.0)
        with pytest.raises(SweepError) as excinfo, run_context(jobs=2):
            compute_rtt_series_multi(tiny_scenario, [self.MODE])
        errors = [failure.error for failure in excinfo.value.failures]
        assert len(errors) == len(tiny_scenario.times_s)
        assert all("InvariantViolation" in error for error in errors)

    def test_guard_off_lets_both_through(self, tiny_scenario, bad_graphs):
        with run_context(strict=False):
            serial = compute_rtt_series_multi(tiny_scenario, [self.MODE])[self.MODE]
            with run_context(jobs=2):
                pooled = compute_rtt_series_multi(tiny_scenario, [self.MODE])[self.MODE]
        np.testing.assert_array_equal(serial.rtt_ms, pooled.rtt_ms)
