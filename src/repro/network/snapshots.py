"""Snapshot time grid: the paper's simulation cadence.

The paper simulates one day at 15-minute snapshots (96 graphs).
:func:`snapshot_times` gives those epoch offsets; each snapshot's graph
comes from :meth:`repro.core.scenario.Scenario.graph_at`.
"""

from __future__ import annotations

import numpy as np

from repro.constants import NUM_SNAPSHOTS_PER_DAY, SNAPSHOT_INTERVAL_S

__all__ = ["snapshot_times"]


def snapshot_times(
    num_snapshots: int = NUM_SNAPSHOTS_PER_DAY,
    interval_s: float = SNAPSHOT_INTERVAL_S,
    start_s: float = 0.0,
) -> np.ndarray:
    """Snapshot epoch offsets in seconds (default: the paper's 96 x 15 min)."""
    if num_snapshots < 1:
        raise ValueError("num_snapshots must be >= 1")
    if interval_s <= 0:
        raise ValueError("interval_s must be positive")
    return start_s + interval_s * np.arange(num_snapshots)
