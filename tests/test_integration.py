"""End-to-end integration tests across the whole stack.

These exercise the exact call chains a user follows: scenario ->
snapshots -> graphs -> routing -> allocation -> metrics, and cross-check
quantities between independent subsystems.
"""

import numpy as np
import pytest
from dataclasses import replace

from repro import (
    ConnectivityMode,
    LinkCapacities,
    Scenario,
    ScenarioScale,
    compare_latency,
    evaluate_throughput,
)
from repro.atmosphere.attenuation import paths_worst_link_attenuation_db
from repro.core.pipeline import pair_rtts_on_graph
from repro.network.snapshots import snapshot_times
from tests.conftest import TINY_SCALE, routed_node_paths


class TestPublicApi:
    def test_top_level_imports_work(self):
        import repro

        assert repro.__version__
        assert callable(repro.compare_latency)
        assert repro.starlink().num_satellites == 1584

    def test_quickstart_flow(self):
        """The README quickstart, verbatim."""
        scenario = Scenario.paper_default("starlink", TINY_SCALE)
        result = compare_latency(scenario)
        summary = result.summary()
        assert summary["bp_min_rtt"]["count"] == len(scenario.pairs)


class TestSnapshotTimes:
    """The snapshot time grid every sweep runs over."""

    def test_snapshot_times_validation(self):
        with pytest.raises(ValueError):
            snapshot_times(0)
        with pytest.raises(ValueError):
            snapshot_times(5, -1.0)

    def test_default_cadence_is_paper(self):
        times = snapshot_times()
        assert len(times) == 96
        assert times[1] - times[0] == 900.0


class TestCrossChecks:
    def test_rtt_lower_bound_is_geodesic(self, tiny_scenario):
        """No network RTT may beat 2 * geodesic / c (physics)."""
        comparison = compare_latency(tiny_scenario)
        for stats in (comparison.bp_stats, comparison.hybrid_stats):
            for i, pair in enumerate(tiny_scenario.pairs):
                if np.isfinite(stats.min_rtt_ms[i]):
                    bound = 2e3 * pair.distance_m / 299_792_458.0
                    assert stats.min_rtt_ms[i] >= bound * (1 - 1e-9)

    def test_hybrid_rtt_close_to_geodesic_for_long_paths(self, tiny_scenario):
        """ISL paths track the great circle: the detour factor stays small."""
        comparison = compare_latency(tiny_scenario)
        for i, pair in enumerate(tiny_scenario.pairs):
            rtt = comparison.hybrid_stats.min_rtt_ms[i]
            if np.isfinite(rtt) and pair.distance_m > 5_000e3:
                bound = 2e3 * pair.distance_m / 299_792_458.0
                assert rtt < 2.0 * bound  # Generous stretch bound.

    def test_throughput_and_latency_same_graph(self, tiny_scenario):
        """Shared-graph consistency between the two main pipelines."""
        graph = tiny_scenario.graph_at(0.0, ConnectivityMode.HYBRID)
        result = evaluate_throughput(graph, tiny_scenario.pairs, k=1)
        rtts = pair_rtts_on_graph(graph, tiny_scenario.pairs)
        paths = result.routing.first_paths()
        routed_pairs = {sf.pair_index for sf in result.routing.subflows}
        for i, path in enumerate(paths):
            assert (path is not None) == (i in routed_pairs)
            assert (path is not None) == bool(np.isfinite(rtts[i]))
            if path is not None:
                assert rtts[i] == pytest.approx(
                    2e3 * path.length_m / 299_792_458.0, rel=1e-9
                )

    def test_attenuation_uses_actual_path_geometry(self, tiny_scenario):
        graph = tiny_scenario.graph_at(0.0, ConnectivityMode.BP_ONLY)
        paths = routed_node_paths(graph, tiny_scenario.pairs)
        attenuations = paths_worst_link_attenuation_db(graph, paths)
        finite = attenuations[np.isfinite(attenuations)]
        assert len(finite) > 0
        assert np.all(finite > 0.0)
        assert np.all(finite < 60.0)


class TestAblations:
    def test_no_aircraft_hurts_bp_reachability(self):
        """Without aircraft relays, transoceanic BP pairs go dark."""
        base = Scenario.paper_default("starlink", TINY_SCALE)
        no_aircraft = replace(base, use_aircraft=False)
        from repro.core.pipeline import compute_rtt_series_multi

        with_air = compute_rtt_series_multi(
            base, [ConnectivityMode.BP_ONLY]
        )[ConnectivityMode.BP_ONLY]
        without_air = compute_rtt_series_multi(
            no_aircraft, [ConnectivityMode.BP_ONLY]
        )[ConnectivityMode.BP_ONLY]
        assert without_air.reachable_fraction() < with_air.reachable_fraction()

    def test_no_aircraft_does_not_affect_hybrid_much(self):
        from repro.core.pipeline import compute_rtt_series_multi

        base = Scenario.paper_default("starlink", TINY_SCALE)
        no_aircraft = replace(base, use_aircraft=False)
        with_air = compute_rtt_series_multi(
            base, [ConnectivityMode.HYBRID]
        )[ConnectivityMode.HYBRID]
        without_air = compute_rtt_series_multi(
            no_aircraft, [ConnectivityMode.HYBRID]
        )[ConnectivityMode.HYBRID]
        # ISLs bridge the oceans; reachability stays identical.
        assert without_air.reachable_fraction() == pytest.approx(
            with_air.reachable_fraction()
        )

    def test_denser_relays_do_not_hurt_bp(self):
        from repro.core.pipeline import compute_rtt_series_multi

        sparse_scale = TINY_SCALE
        dense_scale = ScenarioScale(
            name="tiny-dense",
            num_cities=TINY_SCALE.num_cities,
            num_pairs=TINY_SCALE.num_pairs,
            relay_spacing_deg=2.0,
            num_snapshots=1,
        )
        sparse = compute_rtt_series_multi(
            Scenario.paper_default("starlink", sparse_scale), [ConnectivityMode.BP_ONLY]
        )[ConnectivityMode.BP_ONLY]
        dense = compute_rtt_series_multi(
            Scenario.paper_default("starlink", dense_scale), [ConnectivityMode.BP_ONLY]
        )[ConnectivityMode.BP_ONLY]
        # More relays -> BP min RTTs at the shared first snapshot can only
        # improve (edge superset), up to numeric noise.
        s0 = sparse.rtt_ms[:, 0]
        d0 = dense.rtt_ms[:, 0]
        ok = np.isfinite(s0)
        assert np.all(d0[ok] <= s0[ok] + 1e-6)

    def test_capacity_object_validation(self):
        with pytest.raises(ValueError):
            LinkCapacities(gt_sat_bps=0.0)
        caps = LinkCapacities().scaled_isl(2.0)
        assert caps.isl_bps == pytest.approx(40e9)
