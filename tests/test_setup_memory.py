"""Memory regression tests for scenario set-up (relay grid, pair sampling).

At paper scale a dense grid × city dot matrix peaked at 566 MB and a
full list of eligible ``CityPair`` objects at 91 MB; the KD-tree relay
selection and index-based sampling need a fraction of that. Peaks are
measured with ``tracemalloc``, which sees numpy's buffers.
"""

import tracemalloc

import pytest

from repro.flows.traffic import sample_city_pairs
from repro.geo.landmask import is_land
from repro.ground.cities import load_cities
from repro.ground.relays import _cached_grid, relay_grid_for_cities

PEAK_LIMIT_MB = 64


@pytest.fixture(scope="module")
def cities():
    cities = load_cities(1000)
    is_land(0.0, 0.0)  # load the land raster outside the traced section
    return cities


def traced_peak_mb(func, *args):
    tracemalloc.start()
    try:
        func(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_relay_grid_peak(cities):
    _cached_grid.cache_clear()  # cold: select the grid, not a cache hit
    assert traced_peak_mb(relay_grid_for_cities, cities, 0.5, 2_000e3) <= PEAK_LIMIT_MB


def test_pair_sampling_peak(cities):
    assert traced_peak_mb(sample_city_pairs, cities, 5000) <= PEAK_LIMIT_MB
