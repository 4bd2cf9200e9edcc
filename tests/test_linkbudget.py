"""Tests for the radio link-budget module and its weather coupling."""

import numpy as np
import pytest

from repro.atmosphere.weather_capacity import edge_weather_capacity_factors
from repro.constants import slant_range_m
from repro.network.linkbudget import (
    DEFAULT_DOWNLINK_BUDGET,
    LinkBudget,
    free_space_path_loss_db,
)


class TestFspl:
    def test_textbook_value(self):
        # 1 km at 1 GHz: FSPL ~ 92.45 dB.
        assert float(free_space_path_loss_db(1000.0, 1.0)) == pytest.approx(
            92.45, abs=0.05
        )

    def test_inverse_square(self):
        # Doubling distance adds ~6.02 dB.
        one = float(free_space_path_loss_db(500e3, 11.7))
        two = float(free_space_path_loss_db(1000e3, 11.7))
        assert two - one == pytest.approx(6.02, abs=0.01)

    def test_frequency_dependence(self):
        ku = float(free_space_path_loss_db(550e3, 11.7))
        ka = float(free_space_path_loss_db(550e3, 30.0))
        assert ka - ku == pytest.approx(20 * np.log10(30.0 / 11.7), abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            free_space_path_loss_db(550e3, 0.0)
        with pytest.raises(ValueError):
            free_space_path_loss_db(-1.0, 11.7)


class TestLinkBudget:
    def test_zenith_closes_high_modcod(self):
        esn0 = float(DEFAULT_DOWNLINK_BUDGET.esn0_db(slant_range_m(550e3, 90.0)))
        assert esn0 > 16.0  # Comfortably above 16APSK thresholds.

    def test_margin_shrinks_with_slant_range(self):
        zenith = float(DEFAULT_DOWNLINK_BUDGET.esn0_db(slant_range_m(550e3, 90.0)))
        edge = float(DEFAULT_DOWNLINK_BUDGET.esn0_db(slant_range_m(550e3, 25.0)))
        assert zenith - edge == pytest.approx(6.2, abs=0.5)

    def test_attenuation_subtracts_directly(self):
        distance = slant_range_m(550e3, 45.0)
        clear = float(DEFAULT_DOWNLINK_BUDGET.esn0_db(distance))
        faded = float(DEFAULT_DOWNLINK_BUDGET.esn0_db(distance, 7.0))
        assert clear - faded == pytest.approx(7.0)

    def test_capacity_magnitude(self):
        # One 240 MHz channel at zenith: ~1.4 Gbps; a dozen-ish channels
        # per satellite recovers the paper's ~20 Gbps figure.
        capacity = float(DEFAULT_DOWNLINK_BUDGET.capacity_bps(slant_range_m(550e3, 90.0)))
        assert 1.0e9 < capacity < 2.0e9

    def test_capacity_zero_in_deep_fade(self):
        distance = slant_range_m(550e3, 25.0)
        assert float(DEFAULT_DOWNLINK_BUDGET.capacity_bps(distance, 30.0)) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkBudget(eirp_dbw=30, g_over_t_dbk=10, bandwidth_hz=0, freq_ghz=11.7)
        with pytest.raises(ValueError):
            LinkBudget(eirp_dbw=30, g_over_t_dbk=10, bandwidth_hz=1e6, freq_ghz=-1)


class TestElevationAwareWeatherFactors:
    def test_budget_factors_bounded(self, tiny_hybrid_graph):
        factors = edge_weather_capacity_factors(
            tiny_hybrid_graph, link_budget=DEFAULT_DOWNLINK_BUDGET
        )
        radio = tiny_hybrid_graph.edge_kind == 0
        assert np.all(factors[radio] >= 0.0)
        assert np.all(factors[radio] <= 1.0 + 1e-9)
        assert np.all(factors[~radio] == 1.0)

    def test_budget_model_diverges_from_flat_model(self, tiny_hybrid_graph):
        flat = edge_weather_capacity_factors(tiny_hybrid_graph)
        budget = edge_weather_capacity_factors(
            tiny_hybrid_graph, link_budget=DEFAULT_DOWNLINK_BUDGET
        )
        assert not np.allclose(flat, budget)

    def test_deeper_exceedance_still_monotone(self, tiny_hybrid_graph):
        mild = edge_weather_capacity_factors(
            tiny_hybrid_graph, 1.0, link_budget=DEFAULT_DOWNLINK_BUDGET
        )
        severe = edge_weather_capacity_factors(
            tiny_hybrid_graph, 0.1, link_budget=DEFAULT_DOWNLINK_BUDGET
        )
        assert np.all(severe <= mild + 1e-12)
