"""Tests for the radio link-budget module."""

import numpy as np
import pytest

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

