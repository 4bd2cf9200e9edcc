"""Unit tests for the link models (latency, capacities)."""

import numpy as np
import pytest

from repro.constants import SPEED_OF_LIGHT
from repro.network.links import (
    FIBER_CAPACITY_BPS,
    LinkCapacities,
    propagation_delay_s,
    rtt_ms,
)


class TestPropagation:
    def test_delay_at_c(self):
        assert float(propagation_delay_s(SPEED_OF_LIGHT)) == pytest.approx(1.0)

    def test_rtt_double_one_way(self):
        distance = 1_000_000.0
        assert float(rtt_ms(distance)) == pytest.approx(
            2e3 * distance / SPEED_OF_LIGHT
        )

    def test_vectorized(self):
        distances = np.array([1e6, 2e6, 3e6])
        delays = propagation_delay_s(distances)
        assert delays.shape == (3,)
        assert np.all(np.diff(delays) > 0)

    def test_transatlantic_magnitude(self):
        # ~5,570 km one way -> ~37 ms RTT at c.
        assert float(rtt_ms(5_570e3)) == pytest.approx(37.2, abs=0.5)


class TestLinkCapacities:
    def test_paper_defaults(self):
        caps = LinkCapacities()
        assert caps.gt_sat_bps == 20e9
        assert caps.isl_bps == 100e9
        assert caps.fiber_bps == FIBER_CAPACITY_BPS

    def test_scaled_isl(self):
        scaled = LinkCapacities().scaled_isl(0.5)
        assert scaled.isl_bps == 10e9
        assert scaled.gt_sat_bps == 20e9
        assert scaled.fiber_bps == FIBER_CAPACITY_BPS

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gt_sat_bps": 0.0},
            {"isl_bps": -1.0},
            {"fiber_bps": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            LinkCapacities(**kwargs)

    def test_frozen(self):
        caps = LinkCapacities()
        with pytest.raises(AttributeError):
            caps.isl_bps = 1.0

