"""Unit tests for the lax max-flow baseline and MODCOD weather coupling."""

import numpy as np
import pytest

from repro.atmosphere.attenuation import edge_weather_capacity_factors
from repro.flows.maxflow import lax_max_flow_bps
from repro.flows.throughput import evaluate_throughput
from repro.network.links import LinkCapacities
from repro.network.modcod import (
    CLEAR_SKY_ESN0_DB,
    MODCOD_TABLE,
    spectral_efficiency,
    weather_capacity_factor,
)


class TestModcodTable:
    def test_thresholds_and_efficiencies_positive(self):
        for threshold, efficiency in MODCOD_TABLE:
            assert efficiency > 0
            assert -5.0 < threshold < 25.0

    def test_spectral_efficiency_monotone(self):
        esn0 = np.linspace(-5.0, 25.0, 200)
        eff = spectral_efficiency(esn0)
        assert np.all(np.diff(eff) >= 0)

    def test_below_lowest_threshold_is_zero(self):
        assert float(spectral_efficiency(-10.0)) == 0.0

    def test_top_of_table(self):
        assert float(spectral_efficiency(25.0)) == pytest.approx(5.901)

    def test_clear_sky_factor_is_one(self):
        assert float(weather_capacity_factor(0.0)) == pytest.approx(1.0)

    def test_factor_survives_small_margin(self):
        # Within the clear-sky margin no MODCOD change is needed.
        assert float(weather_capacity_factor(1.0)) == pytest.approx(1.0)

    def test_factor_decreases_with_attenuation(self):
        factors = weather_capacity_factor(np.array([0.0, 6.0, 12.0, 18.0, 30.0]))
        assert np.all(np.diff(factors) <= 1e-12)
        assert factors[-1] == 0.0  # Link down in an extreme fade.

    def test_factor_bounds(self):
        factors = weather_capacity_factor(np.linspace(0, 40, 100))
        assert np.all(factors >= 0.0)
        assert np.all(factors <= 1.0)

    def test_reference_point_consistent(self):
        # The clear-sky Es/N0 includes the margin above a real threshold.
        assert CLEAR_SKY_ESN0_DB > max(t for t, _ in MODCOD_TABLE) - 10


class TestWeatherFactors:
    def test_shape_and_defaults(self, tiny_hybrid_graph):
        factors = edge_weather_capacity_factors(tiny_hybrid_graph)
        assert factors.shape == (tiny_hybrid_graph.num_edges,)
        # ISLs untouched.
        isl = tiny_hybrid_graph.edge_kind == 1
        assert np.all(factors[isl] == 1.0)
        # Radio links in [0, 1].
        radio = tiny_hybrid_graph.edge_kind == 0
        assert np.all(factors[radio] <= 1.0)
        assert np.all(factors[radio] >= 0.0)

    def test_deeper_exceedance_derates_more(self, tiny_hybrid_graph):
        mild = edge_weather_capacity_factors(tiny_hybrid_graph, 1.0)
        severe = edge_weather_capacity_factors(tiny_hybrid_graph, 0.1)
        assert np.all(severe <= mild + 1e-12)

    def test_throughput_with_factors_not_above_clear(
        self, tiny_hybrid_graph, tiny_scenario
    ):
        pairs = tiny_scenario.pairs
        clear = evaluate_throughput(tiny_hybrid_graph, pairs, k=1)
        factors = edge_weather_capacity_factors(tiny_hybrid_graph)
        weather = evaluate_throughput(
            tiny_hybrid_graph, pairs, k=1, edge_capacity_factors=factors
        )
        assert weather.aggregate_bps <= clear.aggregate_bps * (1 + 1e-9)

    def test_factor_validation(self, tiny_hybrid_graph, tiny_scenario):
        with pytest.raises(ValueError):
            evaluate_throughput(
                tiny_hybrid_graph,
                tiny_scenario.pairs[:2],
                k=1,
                edge_capacity_factors=np.ones(3),
            )
        with pytest.raises(ValueError):
            evaluate_throughput(
                tiny_hybrid_graph,
                tiny_scenario.pairs[:2],
                k=1,
                edge_capacity_factors=-np.ones(tiny_hybrid_graph.num_edges),
            )


class TestLaxMaxFlow:
    def test_upper_bounds_routed_throughput(self, tiny_hybrid_graph, tiny_scenario):
        pairs = tiny_scenario.pairs
        routed = evaluate_throughput(tiny_hybrid_graph, pairs, k=4).aggregate_bps
        lax = lax_max_flow_bps(tiny_hybrid_graph, pairs)
        assert lax >= routed * (1 - 1e-6)

    def test_no_pairs(self, tiny_hybrid_graph):
        assert lax_max_flow_bps(tiny_hybrid_graph, []) == 0.0

    def test_capacity_scaling(self, tiny_hybrid_graph, tiny_scenario):
        pairs = tiny_scenario.pairs[:30]
        base = lax_max_flow_bps(tiny_hybrid_graph, pairs)
        doubled = lax_max_flow_bps(
            tiny_hybrid_graph,
            pairs,
            LinkCapacities(gt_sat_bps=40e9, isl_bps=200e9),
        )
        assert doubled == pytest.approx(2 * base, rel=0.01)

    def test_single_pair_bounded_by_access_capacity(
        self, tiny_hybrid_graph, tiny_scenario
    ):
        # One source, one sink: the lax flow equals the true max flow,
        # bounded by the source's total radio capacity.
        pair = tiny_scenario.pairs[0]
        lax = lax_max_flow_bps(tiny_hybrid_graph, [pair])
        graph = tiny_hybrid_graph
        source_node = graph.gt_node(pair.a)
        degree = int(np.sum(graph.edges[:, 1] == source_node))
        assert lax <= degree * 20e9 * (1 + 1e-6)
        assert lax > 0
