"""Memory regression tests for the engine's geometry frame.

Frames are the engine's cached, memory-heavy layer: at the paper's 0.5°
relay grid one holds about 566k candidate GT-satellite rows, and eight
stay cached. The candidate block is a CSR by satellite — an int32 GT
column and a float64 slant column, 12 bytes per row, plus one offset
per satellite — and the frame is built one ECEF axis at a time, so the
build's transient peak stays a small multiple of that. Peaks are
measured with ``tracemalloc``, which sees numpy's buffers.
"""

import tracemalloc

import pytest

from repro.core.engine import _build_frame
from repro.core.scenario import Scenario, ScenarioScale
from repro.obs import observe

#: 300 cities on a 2° relay grid with aircraft: about 40k candidate rows.
SCALE = ScenarioScale(
    name="frame-memory",
    num_cities=300,
    num_pairs=10,
    relay_spacing_deg=2.0,
    num_snapshots=2,
    snapshot_interval_s=3600.0,
)

#: Transient bytes per candidate row while a frame is built. The build
#: peaks at about 47 B/row here; an (N, 3) float64 slant temporary
#: alone would add 24.
BUILD_PEAK_BYTES_PER_ROW = 56


@pytest.fixture(scope="module")
def static():
    scenario = Scenario.paper_default("starlink", SCALE)
    static = scenario.engine.static
    _build_frame(static, 0.0)  # warm every lazy cache outside the traced build
    return static


def test_candidate_block_is_twelve_bytes_per_row(static):
    frame = _build_frame(static, 3600.0)
    rows = len(frame.cand_gt)
    assert rows > 10_000
    assert frame.cand_gt.nbytes + frame.cand_dist_m.nbytes <= 12 * rows
    assert frame.cand_start.shape == (frame.num_sats + 1,)
    assert frame.cand_start.nbytes <= 8 * (frame.num_sats + 1)


def test_build_peak_per_row(static):
    tracemalloc.start()
    try:
        frame = _build_frame(static, 1800.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= BUILD_PEAK_BYTES_PER_ROW * len(frame.cand_gt)


def test_frame_bytes_counter_matches_frame():
    scenario = Scenario.paper_default("starlink", SCALE)
    with observe() as registry:
        frame = scenario.engine.frame_at(0.0)
    counters = registry.snapshot()["counters"]
    assert counters["engine.frame_bytes"] == frame.nbytes
    owned = frame.cand_start.nbytes + frame.cand_gt.nbytes + frame.cand_dist_m.nbytes
    per_node = 64 * (frame.stations.total + frame.num_sats)
    assert owned < frame.nbytes < owned + per_node
