"""Tests for scenarios, the RTT pipeline, metrics, and the comparison."""

import numpy as np
import pytest
from dataclasses import replace

from repro.core.comparison import compare_latency
from repro.core.metrics import distribution_summary, rtt_stats
from repro.core.pipeline import compute_rtt_series_multi
from repro.core.scenario import Scenario, ScenarioScale
from repro.flows.routing import route_traffic
from repro.network.graph import ConnectivityMode
from tests.conftest import TINY_SCALE


class TestScenarioScale:
    def test_full_matches_paper(self):
        full = ScenarioScale.full()
        assert full.num_cities == 1000
        assert full.num_pairs == 5000
        assert full.relay_spacing_deg == 0.5
        assert full.num_snapshots == 96
        assert full.snapshot_interval_s == 900.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioScale("x", 1, 10, 1.0, 10)
        with pytest.raises(ValueError):
            ScenarioScale("x", 10, 0, 1.0, 10)
        with pytest.raises(ValueError):
            ScenarioScale("x", 10, 10, 1.0, 0)


class TestScenario:
    def test_paper_default_by_name(self):
        scenario = Scenario.paper_default("kuiper", TINY_SCALE)
        assert scenario.constellation.name == "kuiper"

    def test_pairs_respect_min_distance(self, tiny_scenario):
        assert all(p.distance_m >= 2_000e3 for p in tiny_scenario.pairs)

    def test_pairs_deterministic(self):
        one = Scenario.paper_default("starlink", TINY_SCALE)
        two = Scenario.paper_default("starlink", TINY_SCALE)
        assert one.pairs == two.pairs

    def test_times_match_scale(self, tiny_scenario):
        assert len(tiny_scenario.times_s) == TINY_SCALE.num_snapshots
        assert tiny_scenario.times_s[1] - tiny_scenario.times_s[0] == pytest.approx(
            TINY_SCALE.snapshot_interval_s
        )

    def test_extra_city_names_included(self):
        scenario = replace(
            Scenario.paper_default("starlink", TINY_SCALE),
            extra_city_names=("Maceio", "Durban"),
        )
        names = {c.name for c in scenario.ground.cities}
        assert {"Maceio", "Durban"} <= names

    def test_extra_city_already_present_not_duplicated(self):
        scenario = replace(
            Scenario.paper_default("starlink", TINY_SCALE),
            extra_city_names=("Tokyo",),  # Tokyo is in the top 40.
        )
        names = [c.name for c in scenario.ground.cities]
        assert names.count("Tokyo") == 1
        assert len(names) == TINY_SCALE.num_cities

    def test_city_pair_helper(self):
        scenario = replace(
            Scenario.paper_default("starlink", TINY_SCALE),
            extra_city_names=("Delhi", "Sydney"),
        )
        pair = scenario.city_pair("Delhi", "Sydney")
        assert pair.distance_m == pytest.approx(10_420e3, rel=0.03)


class TestRttPipeline:
    @pytest.fixture(scope="class")
    def series(self, tiny_scenario):
        return compute_rtt_series_multi(
            tiny_scenario, [ConnectivityMode.HYBRID]
        )[ConnectivityMode.HYBRID]

    def test_shape(self, series, tiny_scenario):
        assert series.rtt_ms.shape == (
            len(tiny_scenario.pairs),
            len(tiny_scenario.times_s),
        )

    def test_rtts_physical(self, series, tiny_scenario):
        finite = series.rtt_ms[np.isfinite(series.rtt_ms)]
        # RTT can never beat the great-circle light bound.
        assert finite.min() > 0
        assert finite.max() < 700.0  # Sanity ceiling for LEO paths.
        for i, pair in enumerate(tiny_scenario.pairs):
            bound_ms = 2e3 * pair.distance_m / 299_792_458.0
            row = series.rtt_ms[i]
            assert np.all(row[np.isfinite(row)] >= bound_ms * (1 - 1e-9))

    def test_reachability_high_for_hybrid(self, series):
        assert series.reachable_fraction() > 0.95

    def test_progress_callback(self, tiny_scenario):
        calls = []
        compute_rtt_series_multi(
            tiny_scenario,
            [ConnectivityMode.HYBRID],
            progress=lambda i, n: calls.append((i, n)),
        )
        assert calls == [(i + 1, 3) for i in range(3)]

    def test_routed_paths_match_series(self, tiny_scenario, tiny_hybrid_graph):
        series = compute_rtt_series_multi(
            tiny_scenario, [ConnectivityMode.HYBRID]
        )[ConnectivityMode.HYBRID]
        paths = route_traffic(tiny_hybrid_graph, tiny_scenario.pairs).first_paths()
        assert len(paths) == len(tiny_scenario.pairs)
        for i, path in enumerate(paths):
            if path is None:
                assert not np.isfinite(series.rtt_ms[i, 0])

    def test_first_path_endpoints(self, tiny_scenario):
        pair = tiny_scenario.pairs[0]
        graph = tiny_scenario.graph_at(0.0, ConnectivityMode.HYBRID)
        (path,) = route_traffic(graph, [pair]).first_paths()
        assert path is not None
        assert path.nodes[0] == graph.gt_node(pair.a)
        assert path.nodes[-1] == graph.gt_node(pair.b)


class TestMetrics:
    def test_rtt_stats_basic(self):
        from repro.core.pipeline import RttSeries

        rtt = np.array([[10.0, 12.0, 11.0], [5.0, np.inf, 7.0]])
        series = RttSeries(
            mode=ConnectivityMode.HYBRID, times_s=np.arange(3.0), rtt_ms=rtt
        )
        stats = rtt_stats(series)
        assert stats.min_rtt_ms[0] == 10.0
        assert stats.max_rtt_ms[0] == 12.0
        assert stats.variation_ms[0] == pytest.approx(2.0)
        assert stats.always_reachable[0]
        # Pair 1: one unreachable snapshot.
        assert not stats.always_reachable[1]
        assert stats.min_rtt_ms[1] == 5.0
        assert stats.variation_ms[1] == pytest.approx(2.0)

    def test_rtt_stats_unreachable_pair(self):
        from repro.core.pipeline import RttSeries

        rtt = np.full((1, 3), np.inf)
        stats = rtt_stats(
            RttSeries(mode=ConnectivityMode.BP_ONLY, times_s=np.arange(3.0), rtt_ms=rtt)
        )
        assert np.isnan(stats.min_rtt_ms[0])

    def test_distribution_summary(self):
        summary = distribution_summary(np.arange(101, dtype=float))
        assert summary["count"] == 101
        assert summary["p50"] == 50.0
        assert summary["min"] == 0.0
        assert summary["max"] == 100.0

    def test_distribution_summary_ignores_nan(self):
        values = np.array([1.0, np.nan, 3.0, np.inf])
        assert distribution_summary(values)["count"] == 2

    def test_distribution_summary_empty(self):
        assert distribution_summary(np.array([]))["count"] == 0


class TestComparison:
    @pytest.fixture(scope="class")
    def comparison(self, tiny_scenario):
        return compare_latency(tiny_scenario)

    def test_hybrid_min_rtt_never_worse(self, comparison):
        """Fig. 2(a)'s defining property: hybrid is a superset network."""
        gaps = comparison.min_rtt_gap_ms()
        finite = gaps[np.isfinite(gaps)]
        assert np.all(finite >= -1e-6)

    def test_headline_fields_present(self, comparison):
        summary = comparison.summary()
        assert "max_min_rtt_gap_ms" in summary
        assert summary["bp_min_rtt"]["count"] > 0

    def test_variation_increase_median_positive(self, comparison):
        # Even at tiny scale, BP varies more at the median pair.
        assert comparison.variation_increase_pct(50) > 0
