"""Link models: propagation latency, capacities, and link typing.

Both radio GT-satellite links and laser ISLs propagate at the speed of
light in vacuum (radio through the atmosphere is within a fraction of a
percent of c); the paper's latency differences between BP and ISL paths
come from geometry, not medium.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.constants import GT_SAT_CAPACITY_BPS, ISL_CAPACITY_BPS, SPEED_OF_LIGHT

__all__ = ["LinkKind", "LinkCapacities", "propagation_delay_s", "rtt_ms"]


class LinkKind(Enum):
    """Physical link families in the simulated network."""

    GT_SAT = "gt-sat"
    ISL = "isl"
    FIBER = "fiber"


#: Default capacity of a terrestrial fiber hop between nearby cities,
#: bits/s. Metro fiber is effectively unconstrained next to radio links;
#: 400 Gbps represents a modest lit-capacity assumption.
FIBER_CAPACITY_BPS = 400e9


@dataclass(frozen=True)
class LinkCapacities:
    """Capacity assignment for the link families, bits/s.

    Paper defaults: 20 Gbps up/down radio links, 100 Gbps ISLs
    (Section 5). ``scaled_isl`` supports the Fig. 5 sweep where ISL
    capacity runs from 0.5x to 5x the GT-link capacity. Fiber capacity
    only matters for Section 8 fiber-augmentation scenarios.
    """

    gt_sat_bps: float = GT_SAT_CAPACITY_BPS
    isl_bps: float = ISL_CAPACITY_BPS
    fiber_bps: float = FIBER_CAPACITY_BPS

    def __post_init__(self):
        if self.gt_sat_bps <= 0 or self.isl_bps <= 0 or self.fiber_bps <= 0:
            raise ValueError("link capacities must be positive")

    def scaled_isl(self, ratio: float) -> "LinkCapacities":
        """Capacities with ISL capacity set to ``ratio`` x GT-link capacity."""
        return LinkCapacities(
            gt_sat_bps=self.gt_sat_bps,
            isl_bps=ratio * self.gt_sat_bps,
            fiber_bps=self.fiber_bps,
        )


def propagation_delay_s(distance_m) -> np.ndarray:
    """One-way propagation delay over ``distance_m`` at c, seconds."""
    return np.asarray(distance_m, dtype=float) / SPEED_OF_LIGHT


def rtt_ms(one_way_distance_m) -> np.ndarray:
    """Round-trip time for a path of given one-way length, milliseconds."""
    return 2e3 * propagation_delay_s(one_way_distance_m)
