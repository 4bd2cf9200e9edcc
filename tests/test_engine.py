"""Tests for the layered snapshot engine (static / per-time / assembly).

The engine's contract has three load-bearing pieces, each pinned here:

* **numerical equivalence** — graphs assembled through the cached
  layers are bit-identical to the monolithic
  :func:`tests.reference_graph.build_snapshot_graph` reference for every
  mode/policy/fault combination;
* **work sharing** — a two-mode sweep pays for satellite propagation
  and KD-tree visibility queries exactly once per snapshot (verified
  through obs counters and a propagation call count);
* **fault isolation** — fault injection acts strictly in the assembly
  layer, so an ambient :class:`~repro.faults.FaultSpec` can neither
  leak into a cached geometry frame nor back out of one;
* **one frame** — the engine holds only the current instant's frame and
  drops it before building the next, while a graph keeps its own.
"""

from __future__ import annotations

import pickle
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial import cKDTree

from repro.constants import EARTH_RADIUS
from repro.context import run_context
from repro.core.engine import SnapshotEngine, StaticContext
from repro.core.pipeline import compute_rtt_series_multi
from repro.core.scenario import Scenario, ScenarioScale
from repro.faults import FaultSpec, apply_faults
from repro.ground.aircraft import default_schedule
from repro.ground.cities import City
from repro.ground.stations import GroundSegment
from repro.network.graph import (
    ConnectivityMode,
    GsoProtectionPolicy,
    beam_limited_edge_mask,
    gso_compliant_edge_mask,
)
from repro.obs import MetricsRegistry, observe
from repro.orbits.coordinates import geodetic_to_ecef
from tests.reference_graph import build_snapshot_graph

#: Small enough for seconds-scale tests, big enough that every filter
#: (GSO arc, beam limit, fiber, faults) has edges to act on.
ENGINE_SCALE = ScenarioScale(
    name="engine-tiny",
    num_cities=40,
    num_pairs=10,
    relay_spacing_deg=4.0,
    num_snapshots=2,
    snapshot_interval_s=900.0,
)


def fresh_scenario() -> Scenario:
    """A scenario with a cold engine (no shared session-fixture caches)."""
    return Scenario.paper_default("starlink", ENGINE_SCALE)


@pytest.fixture(scope="module")
def base_scenario() -> Scenario:
    """Module-shared scenario for read-only equivalence checks."""
    return fresh_scenario()


#: Two cities, no relays and a thin aircraft fleet: most satellites see
#: no GT, and the rest see static GTs only, aircraft only, or both.
SPARSE_SCALE = replace(ENGINE_SCALE, name="engine-sparse", num_cities=2, num_pairs=1)


def with_ground(cities=(), schedule=None) -> Scenario:
    """The engine-tiny scenario on a hand-built relay-free ground."""
    scenario = fresh_scenario()
    ground = GroundSegment(
        cities=tuple(cities),
        relay_lats=np.empty(0),
        relay_lons=np.empty(0),
        schedule=schedule,
        use_relays=False,
        use_aircraft=schedule is not None,
    )
    object.__setattr__(scenario, "ground", ground)
    return scenario


def cone_edge_cities(constellation) -> list[City]:
    """Cities at exactly the coverage chord of every 40th t = 0 satellite.

    Three bearings per satellite; the lat/lon round trip leaves each city
    a few ulps inside or outside the cone.
    """
    static = StaticContext.build(constellation, with_ground().ground)
    ((offset, count, chord),) = static.shell_params
    sat_ecef = constellation.positions_ecef(0.0)[offset : offset + count]
    units = sat_ecef / np.linalg.norm(sat_ecef, axis=1, keepdims=True)
    psi = 2.0 * np.arcsin(chord / 2.0)
    rng = np.random.default_rng(5)
    cities = []
    for sat in units[::40]:
        for _ in range(3):
            tangent = np.cross(sat, rng.normal(size=3))
            tangent /= np.linalg.norm(tangent)
            x, y, z = np.cos(psi) * sat + np.sin(psi) * tangent
            cities.append(
                City(
                    name=f"edge-{len(cities)}",
                    country="XX",
                    lat_deg=float(np.degrees(np.arcsin(z))),
                    lon_deg=float(np.degrees(np.arctan2(y, x))),
                    population_k=1.0,
                )
            )
    return cities


#: Scenarios at the edges of the frame's candidate query: one shell or
#: two, an aircraft block or none, satellites with no hits, no static
#: tree ("aircraft_only"), no GT at all ("empty": no KD-tree block and
#: ``num_gts == 0``), and cities on the coverage-cone boundary of t = 0
#: satellites ("cone_edge").
FRAME_SCENARIOS = {
    "starlink": fresh_scenario,
    "two_shell": lambda: Scenario.paper_default("starlink+polar", ENGINE_SCALE),
    "no_aircraft": lambda: replace(fresh_scenario(), use_aircraft=False),
    "sparse": lambda: replace(
        Scenario.paper_default("starlink", SPARSE_SCALE),
        use_relays=False,
        aircraft_density_scale=0.05,
    ),
    "empty": lambda: with_ground(),
    "aircraft_only": lambda: with_ground(schedule=default_schedule(0.05)),
    "cone_edge": lambda: with_ground(cone_edge_cities(fresh_scenario().constellation)),
}


def legacy_graph(scenario: Scenario, time_s: float, mode: ConnectivityMode):
    """The pre-refactor reference: monolithic build, then faults."""
    graph = build_snapshot_graph(
        scenario.constellation,
        scenario.ground.stations_at(time_s),
        time_s,
        mode,
        gso_policy=scenario.gso_policy,
        fiber_max_km=scenario.fiber_max_km,
        max_gts_per_satellite=scenario.max_gts_per_satellite,
    )
    return apply_faults(graph, scenario.faults)


def assert_graphs_identical(got, want):
    """Bit-for-bit equality of everything routing consumes."""
    assert got.num_sats == want.num_sats
    assert got.num_gts == want.num_gts
    assert got.mode is want.mode
    np.testing.assert_array_equal(got.edges, want.edges)
    np.testing.assert_array_equal(got.edge_dist_m, want.edge_dist_m)
    np.testing.assert_array_equal(got.edge_kind, want.edge_kind)
    np.testing.assert_array_equal(got.sat_ecef, want.sat_ecef)
    np.testing.assert_array_equal(got.gt_ecef, want.gt_ecef)


def assert_csr_identical(got, want):
    """Bit-for-bit equality of two CSR matrices."""
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.data, want.data)


#: (config name, assembly overrides, mode) — the acceptance matrix: BP,
#: hybrid, ISL-only, GSO policy, beam limit, fiber, faults, and all of
#: them at once.
EQUIVALENCE_CONFIGS = [
    ("bp", {}, ConnectivityMode.BP_ONLY),
    ("hybrid", {}, ConnectivityMode.HYBRID),
    ("isl_only", {}, ConnectivityMode.ISL_ONLY),
    (
        "gso",
        {"gso_policy": GsoProtectionPolicy(min_separation_deg=20.0)},
        ConnectivityMode.HYBRID,
    ),
    ("beam", {"max_gts_per_satellite": 4}, ConnectivityMode.BP_ONLY),
    ("fiber", {"fiber_max_km": 1500.0}, ConnectivityMode.HYBRID),
    (
        "faulted",
        {"faults": FaultSpec(sat=0.1, relay=0.2, seed=3)},
        ConnectivityMode.HYBRID,
    ),
    (
        "combined",
        {
            "gso_policy": GsoProtectionPolicy(min_separation_deg=20.0),
            "max_gts_per_satellite": 4,
            "fiber_max_km": 1500.0,
            "faults": FaultSpec(sat=0.05, city=0.1, seed=11),
        },
        ConnectivityMode.HYBRID,
    ),
]


class TestNumericalEquivalence:
    """Engine output == monolithic builder output, for every config."""

    @pytest.mark.parametrize(
        "overrides,mode",
        [c[1:] for c in EQUIVALENCE_CONFIGS],
        ids=[c[0] for c in EQUIVALENCE_CONFIGS],
    )
    def test_matches_monolithic_builder(self, base_scenario, overrides, mode):
        scenario = base_scenario.with_assembly(**overrides)
        for time_s in scenario.times_s:
            got = scenario.graph_at(float(time_s), mode)
            want = legacy_graph(scenario, float(time_s), mode)
            assert_graphs_identical(got, want)

    @pytest.mark.parametrize(
        "name", ["two_shell", "no_aircraft", "empty", "aircraft_only", "cone_edge"]
    )
    @pytest.mark.parametrize(
        "mode",
        [ConnectivityMode.BP_ONLY, ConnectivityMode.HYBRID],
        ids=lambda mode: mode.value,
    )
    def test_ground_and_shell_variants(self, name, mode):
        scenario = FRAME_SCENARIOS[name]()
        for time_s in scenario.times_s:
            got = scenario.graph_at(float(time_s), mode)
            want = legacy_graph(scenario, float(time_s), mode)
            assert_graphs_identical(got, want)

    def test_graphs_at_share_one_frame(self, base_scenario):
        graphs = {
            mode: base_scenario.graph_at(0.0, mode)
            for mode in (ConnectivityMode.BP_ONLY, ConnectivityMode.HYBRID)
        }
        bp = graphs[ConnectivityMode.BP_ONLY]
        hybrid = graphs[ConnectivityMode.HYBRID]
        # Same frame, not merely equal geometry: the arrays are shared.
        assert bp.sat_ecef is hybrid.sat_ecef
        assert bp.gt_ecef is hybrid.gt_ecef
        assert_graphs_identical(
            bp, legacy_graph(base_scenario, 0.0, ConnectivityMode.BP_ONLY)
        )
        assert_graphs_identical(
            hybrid, legacy_graph(base_scenario, 0.0, ConnectivityMode.HYBRID)
        )


def sorted_candidates(static, frame):
    """The frame's candidates the earlier way: query, lexsort, then norm."""
    stations = frame.stations
    first_air = static.static_count
    air_units = (
        geodetic_to_ecef(stations.lats[first_air:], stations.lons[first_air:], 0.0)
        / EARTH_RADIUS
    )
    trees = []
    if static.static_tree is not None:
        trees.append((static.static_tree, 0))
    if len(air_units):
        trees.append((cKDTree(air_units), first_air))
    sats: list[int] = []
    gts: list[int] = []
    for offset, count, chord in static.shell_params:
        shell = frame.sat_ecef[offset : offset + count]
        units = shell / np.linalg.norm(shell, axis=1, keepdims=True)
        for tree, gt_offset in trees:
            for i, hits in enumerate(tree.query_ball_point(units, r=chord)):
                sats += [offset + i] * len(hits)
                gts += [gt_offset + h for h in hits]
    sats = np.array(sats, dtype=np.int64)
    gts = np.array(gts, dtype=np.int64)
    order = np.lexsort((gts, sats))
    sats, gts = sats[order], gts[order]
    edges = np.stack([sats, gts + frame.num_sats], axis=1)
    dists = np.linalg.norm(frame.sat_ecef[sats] - frame.gt_ecef[gts], axis=1)
    return edges, dists


def frame_rows(frame):
    """The frame's candidate rows as ``(m, 2)`` ``[sat_index, gt_node]``."""
    return np.stack(
        [frame.cand_sat(), frame.cand_gt + frame.num_sats], axis=1
    ).astype(np.int64)


class TestFrameRowOrder:
    """Candidate rows: (satellite, GT) ascending, bit-equal to a sort."""

    @pytest.mark.parametrize("name", sorted(FRAME_SCENARIOS))
    def test_matches_sorted_reference(self, name):
        scenario = FRAME_SCENARIOS[name]()
        engine = scenario.engine
        for time_s in scenario.times_s:
            frame = engine.frame_at(float(time_s))
            edges, dists = sorted_candidates(engine.static, frame)
            assert frame.cand_gt.dtype == np.int32
            assert frame.cand_start.dtype == np.int64
            counts = np.bincount(edges[:, 0], minlength=frame.num_sats)
            assert np.array_equal(np.diff(frame.cand_start), counts)
            assert frame.cand_start[0] == 0
            assert np.array_equal(frame_rows(frame), edges)
            assert np.array_equal(frame.cand_dist_m, dists)

    def test_edge_grounds_have_the_shapes_they_name(self):
        empty = FRAME_SCENARIOS["empty"]().engine.frame_at(0.0)
        assert empty.gt_ecef.shape == (0, 3) and empty.cand_gt.shape == (0,)
        assert not empty.cand_start.any()
        assert empty.cand_start.shape == (empty.num_sats + 1,)
        scenario = FRAME_SCENARIOS["aircraft_only"]()
        assert scenario.engine.static.static_tree is None
        assert len(scenario.engine.frame_at(0.0).cand_gt) > 0
        # The cone-edge cities straddle the chord: some are candidates of
        # the satellite they were placed around, and some fall just outside.
        scenario = FRAME_SCENARIOS["cone_edge"]()
        frame = scenario.engine.frame_at(0.0)
        owners = (40 * (np.arange(len(scenario.ground.cities)) // 3)).tolist()
        seen = set(map(tuple, frame_rows(frame).tolist()))
        kept = [(sat, gt + frame.num_sats) in seen for gt, sat in enumerate(owners)]
        assert any(kept) and not all(kept)

    def test_sparse_ground_reaches_every_placement_case(self):
        scenario = FRAME_SCENARIOS["sparse"]()
        frame = scenario.engine.frame_at(0.0)
        static_count = scenario.engine.static.static_count
        sats = frame.cand_sat()
        is_static = frame.cand_gt < static_count
        static_sats = set(sats[is_static].tolist())
        air_sats = set(sats[~is_static].tolist())
        assert static_sats - air_sats, "no satellite sees static GTs only"
        assert air_sats - static_sats, "no satellite sees aircraft only"
        assert static_sats & air_sats, "no satellite sees both blocks"
        assert len(static_sats | air_sats) < frame.num_sats


class TestTwoModeSweepSharesWork:
    """Acceptance: propagation and KD-tree queries once per snapshot."""

    def test_propagation_and_kdtree_once_per_snapshot(self, monkeypatch):
        scenario = fresh_scenario()
        constellation_cls = type(scenario.constellation)
        original = constellation_cls.positions_ecef
        propagations: list[float] = []

        def counting(self, time_s, _original=original):
            propagations.append(float(time_s))
            return _original(self, time_s)

        monkeypatch.setattr(constellation_cls, "positions_ecef", counting)

        registry = MetricsRegistry()
        with observe(registry):
            series = compute_rtt_series_multi(
                scenario, [ConnectivityMode.BP_ONLY, ConnectivityMode.HYBRID]
            )

        num_snapshots = len(scenario.times_s)
        # Propagation ran once per snapshot — not once per (snapshot, mode).
        assert sorted(propagations) == sorted(float(t) for t in scenario.times_s)

        payload = registry.snapshot()
        counters = payload["counters"]
        assert counters["engine.frame_misses"] == num_snapshots
        assert counters["engine.frame_hits"] == num_snapshots
        assert counters["engine.assemblies"] == 2 * num_snapshots
        # BP and hybrid share one transit contraction per snapshot.
        assert counters["engine.contraction_misses"] == num_snapshots
        assert counters["engine.contraction_hits"] == num_snapshots

        spans = payload["spans"]
        # KD-tree visibility queries happen only inside frame builds.
        kdtree = spans["snapshot/graph_build/frame_build/kdtree_query"]
        assert kdtree["count"] == num_snapshots
        assert spans["snapshot/graph_build/frame_build"]["count"] == num_snapshots
        assert spans["snapshot/graph_build"]["count"] == 2 * num_snapshots
        assert spans["snapshot/transit_contraction"]["count"] == num_snapshots

        for mode in (ConnectivityMode.BP_ONLY, ConnectivityMode.HYBRID):
            assert series[mode].rtt_ms.shape == (
                len(scenario.pairs),
                num_snapshots,
            )

    def test_engine_stats_mirror_counters(self):
        scenario = fresh_scenario()
        with observe() as registry:
            for mode in (ConnectivityMode.BP_ONLY, ConnectivityMode.HYBRID):
                scenario.graph_at(0.0, mode)
        counters = registry.snapshot()["counters"]
        assert counters["engine.static_misses"] == 1
        assert counters["engine.frame_misses"] == 1
        assert counters["engine.frame_hits"] == 1
        assert counters["engine.assemblies"] == 2
        # One frame built: the counter holds its candidate rows.
        frame = scenario.engine.frame_at(0.0)
        assert counters["engine.cand_edges"] == len(frame.cand_gt) > 0


class TestFaultIsolation:
    """Faults act in assembly only; cached frames stay fault-free."""

    SPEC = FaultSpec(sat=0.3, seed=5)

    def test_ambient_faults_do_not_poison_cached_frames(self):
        scenario = fresh_scenario()
        with observe() as registry:
            with run_context(faults=self.SPEC):
                faulted = scenario.graph_at(0.0, ConnectivityMode.HYBRID)
                faulted_contracted = faulted.contracted_matrix()
            # The frame built under the ambient spec is now cached; graphs
            # assembled after the context exits must be clean.
            after = scenario.graph_at(0.0, ConnectivityMode.HYBRID)

        counters = registry.snapshot()["counters"]
        assert counters["engine.frame_misses"] == 1
        assert counters["engine.frame_hits"] == 1
        clean = legacy_graph(scenario, 0.0, ConnectivityMode.HYBRID)
        assert_graphs_identical(after, clean)
        assert len(faulted.edges) < len(clean.edges)
        # Nor the frame's bounce memo: the faulted graph contracted its
        # own edges, and the clean graph gets the clean contraction.
        assert scenario.engine.frame_at(0.0)._radio == {}
        assert_csr_identical(after.contracted_matrix(), clean.contracted_matrix())
        assert faulted_contracted.nnz < clean.contracted_matrix().nnz

    def test_faults_do_not_leak_out_of_clean_frames(self):
        scenario = fresh_scenario()
        clean_first = scenario.graph_at(0.0, ConnectivityMode.HYBRID)
        clean_first.contracted_matrix()  # fills the frame's bounce memo
        with observe() as registry, run_context(faults=self.SPEC):
            faulted = scenario.graph_at(0.0, ConnectivityMode.HYBRID)

        # Reused the clean-built frame, and still applied the faults.
        assert registry.snapshot()["counters"]["engine.frame_hits"] == 1
        want = apply_faults(
            legacy_graph(scenario, 0.0, ConnectivityMode.HYBRID), self.SPEC
        )
        assert_graphs_identical(faulted, want)
        assert len(faulted.edges) < len(clean_first.edges)
        # The clean bounce memo does not leak into the faulted graph.
        assert_csr_identical(faulted.contracted_matrix(), want.contracted_matrix())

    def test_explicit_faults_beat_ambient_spec(self):
        scenario = fresh_scenario().with_assembly(faults=FaultSpec(sat=0.1, seed=7))
        with run_context(faults=self.SPEC):
            got = scenario.graph_at(0.0, ConnectivityMode.HYBRID)
        assert_graphs_identical(got, legacy_graph(scenario, 0.0, ConnectivityMode.HYBRID))


class TestGsoBeamOrdering:
    """The beam limit ranks only GSO-compliant candidate edges."""

    POLICY = GsoProtectionPolicy(min_separation_deg=20.0)
    BEAM_LIMIT = 4

    def _candidate_masks(self, scenario):
        frame = scenario.engine.frame_at(0.0)
        compliant = gso_compliant_edge_mask(
            frame.stations.lats,
            frame.stations.lons,
            frame.gt_ecef,
            frame.sat_ecef,
            frame.cand_gt,
            frame.cand_sat(),
            self.POLICY,
        )
        return frame, compliant

    def test_beam_limit_applies_after_gso_drop(self, base_scenario):
        scenario = base_scenario.with_assembly(
            gso_policy=self.POLICY, max_gts_per_satellite=self.BEAM_LIMIT
        )
        graph = scenario.graph_at(0.0, ConnectivityMode.BP_ONLY)
        got = set(map(tuple, graph.edges[graph.edge_kind == 0]))

        frame, compliant = self._candidate_masks(scenario)
        cand_edges = frame_rows(frame)
        edges = cand_edges[compliant]
        dists = frame.cand_dist_m[compliant]
        keep = beam_limited_edge_mask(edges[:, 0], dists, self.BEAM_LIMIT)
        correct_order = set(map(tuple, edges[keep]))
        assert got == correct_order

        # The reverse composition (beam limit first, GSO drop second)
        # must actually differ here, otherwise this test proves nothing:
        # a GSO-forbidden edge must never consume one of the beam slots.
        wrong_keep = beam_limited_edge_mask(
            cand_edges[:, 0], frame.cand_dist_m, self.BEAM_LIMIT
        )
        wrong_edges = cand_edges[wrong_keep]
        wrong_compliant = gso_compliant_edge_mask(
            frame.stations.lats,
            frame.stations.lons,
            frame.gt_ecef,
            frame.sat_ecef,
            wrong_edges[:, 1] - frame.num_sats,
            wrong_edges[:, 0],
            self.POLICY,
        )
        wrong_order = set(map(tuple, wrong_edges[wrong_compliant]))
        assert wrong_order != correct_order
        assert len(wrong_order) < len(correct_order)

    def test_beam_slots_filled_by_closest_compliant_gts(self, base_scenario):
        scenario = base_scenario.with_assembly(
            gso_policy=self.POLICY, max_gts_per_satellite=self.BEAM_LIMIT
        )
        graph = scenario.graph_at(0.0, ConnectivityMode.BP_ONLY)
        frame, compliant = self._candidate_masks(scenario)
        edges = frame_rows(frame)[compliant]
        dists = frame.cand_dist_m[compliant]

        kept = graph.edges[graph.edge_kind == 0]
        kept_dists = graph.edge_dist_m[graph.edge_kind == 0]
        for sat in np.unique(kept[:, 0]):
            sat_kept = kept_dists[kept[:, 0] == sat]
            assert len(sat_kept) <= self.BEAM_LIMIT
            # Each satellite's slots hold its closest compliant GTs.
            candidates = np.sort(dists[edges[:, 0] == sat])
            np.testing.assert_array_equal(
                np.sort(sat_kept), candidates[: len(sat_kept)]
            )


class TestWithAssembly:
    """Assembly-only variants share the engine; others don't."""

    def test_variant_shares_engine_and_derived_state(self):
        scenario = fresh_scenario()
        scenario.graph_at(0.0, ConnectivityMode.BP_ONLY)
        scenario.pairs  # materialize so the variant can share it
        variant = scenario.with_assembly(
            gso_policy=GsoProtectionPolicy(min_separation_deg=10.0)
        )
        assert variant.engine is scenario.engine
        assert variant.ground is scenario.ground
        assert variant.pairs is scenario.pairs
        with observe() as registry:
            variant.graph_at(0.0, ConnectivityMode.BP_ONLY)
        # The variant's build hit the shared frame cache.
        assert registry.snapshot()["counters"]["engine.frame_hits"] == 1

    def test_fault_variant_shares_engine(self):
        scenario = fresh_scenario()
        variant = scenario.with_assembly(faults=FaultSpec(sat=0.2, seed=1))
        assert variant.engine is scenario.engine

    def test_unknown_field_rejected(self, base_scenario):
        with pytest.raises(TypeError, match="assembly-layer"):
            base_scenario.with_assembly(traffic_seed=7)

    def test_non_assembly_change_gets_fresh_engine(self, base_scenario):
        from dataclasses import replace

        other = replace(base_scenario, traffic_seed=99)
        assert other.engine is not base_scenario.engine


class TestEnginePickling:
    """Scenarios pickle without their engine; workers rebuild locally."""

    def test_engine_dropped_and_rebuilt(self):
        scenario = fresh_scenario()
        want = scenario.graph_at(0.0, ConnectivityMode.HYBRID)
        assert "engine" in scenario.__dict__
        restored = pickle.loads(pickle.dumps(scenario))
        assert "engine" not in restored.__dict__
        got = restored.graph_at(0.0, ConnectivityMode.HYBRID)
        assert_graphs_identical(got, want)


class TestOneFrame:
    """The engine holds one frame, the current instant's; graphs hold theirs."""

    def test_time_outer_sweep_builds_one_frame_per_instant(self):
        scenario = fresh_scenario()
        modes = (ConnectivityMode.BP_ONLY, ConnectivityMode.HYBRID)
        with observe() as registry:
            compute_rtt_series_multi(scenario, modes)
        counters = registry.snapshot()["counters"]
        instants = len(scenario.times_s)
        assert instants > 1
        assert counters["engine.frame_misses"] == instants
        assert counters["engine.frame_hits"] == instants * (len(modes) - 1)

    def test_previous_frame_is_dropped_before_the_next_build(self, monkeypatch):
        from repro.core import engine as engine_module

        engine = SnapshotEngine(*self._layers())
        first = weakref.ref(engine.frame_at(0.0))
        alive_at_build = []
        build = engine_module._build_frame

        def watching(static, time_s):
            alive_at_build.append(first() is not None)
            return build(static, time_s)

        monkeypatch.setattr(engine_module, "_build_frame", watching)
        second = engine.frame_at(900.0)
        assert alive_at_build == [False]
        assert first() is None
        assert engine.frame_at(900.0) is second

    def test_frame_held_by_a_live_graph_survives(self):
        scenario = fresh_scenario()
        held = scenario.graph_at(0.0, ConnectivityMode.HYBRID)
        frame = weakref.ref(held.frame)
        scenario.graph_at(900.0, ConnectivityMode.HYBRID)
        assert frame() is held.frame
        # The engine rebuilds t = 0 on request; the held graph keeps its own.
        rebuilt = scenario.graph_at(0.0, ConnectivityMode.HYBRID)
        assert rebuilt.frame is not held.frame
        assert_graphs_identical(held, legacy_graph(scenario, 0.0, ConnectivityMode.HYBRID))
        assert_csr_identical(held.contracted_matrix(), rebuilt.contracted_matrix())

    def test_fault_sweep_builds_one_frame_per_instant(self, monkeypatch):
        from repro.experiments import ext_fault_tolerance, get_experiment
        from tests.conftest import TINY_SCALE

        monkeypatch.setattr(ext_fault_tolerance, "FRACTIONS", (0.0, 0.5, 0.9))
        with observe() as registry:
            get_experiment("faults")(TINY_SCALE)
        counters = registry.snapshot()["counters"]
        assert counters["engine.frame_misses"] == TINY_SCALE.num_snapshots

    @staticmethod
    def _layers():
        scenario = fresh_scenario()
        return scenario.constellation, scenario.ground
