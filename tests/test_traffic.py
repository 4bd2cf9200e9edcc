"""Unit tests for the traffic matrix (city-pair sampling)."""

from functools import lru_cache

import numpy as np
import pytest

from repro.flows.traffic import CityPair, eligible_pairs, sample_city_pairs
from repro.geo.geodesy import haversine_m
from repro.ground.cities import load_cities


@pytest.fixture(scope="module")
def cities():
    return load_cities(60)


class TestEligiblePairs:
    def test_all_pairs_exceed_min_distance(self, cities):
        pairs = eligible_pairs(cities, 2_000e3)
        assert len(pairs) > 0
        for pair in pairs[::50]:
            a, b = cities[pair.a], cities[pair.b]
            assert haversine_m(a.lat_deg, a.lon_deg, b.lat_deg, b.lon_deg) >= 2_000e3

    def test_stored_distance_correct(self, cities):
        pairs = eligible_pairs(cities, 2_000e3)
        pair = pairs[0]
        a, b = cities[pair.a], cities[pair.b]
        assert pair.distance_m == pytest.approx(
            float(haversine_m(a.lat_deg, a.lon_deg, b.lat_deg, b.lon_deg)), rel=1e-9
        )

    def test_unordered_no_duplicates(self, cities):
        pairs = eligible_pairs(cities, 2_000e3)
        seen = {(p.a, p.b) for p in pairs}
        assert len(seen) == len(pairs)
        assert all(p.a < p.b for p in pairs)

    def test_zero_min_distance_gives_all_pairs(self, cities):
        n = len(cities)
        pairs = eligible_pairs(cities, 0.0)
        assert len(pairs) == n * (n - 1) // 2

    def test_huge_min_distance_gives_none(self, cities):
        assert eligible_pairs(cities, 25_000e3) == []

    def test_nearby_pairs_excluded(self):
        # London and Paris are ~340 km apart: never an eligible pair.
        cities = load_cities(300)
        names = {i: c.name for i, c in enumerate(cities)}
        pairs = eligible_pairs(cities, 2_000e3)
        for pair in pairs:
            assert {names[pair.a], names[pair.b]} != {"London", "Paris"}


class TestSampling:
    def test_sample_size(self, cities):
        pairs = sample_city_pairs(cities, num_pairs=100)
        assert len(pairs) == 100

    def test_deterministic_for_seed(self, cities):
        one = sample_city_pairs(cities, num_pairs=50, seed=1)
        two = sample_city_pairs(cities, num_pairs=50, seed=1)
        assert one == two

    def test_seed_changes_sample(self, cities):
        one = sample_city_pairs(cities, num_pairs=50, seed=1)
        two = sample_city_pairs(cities, num_pairs=50, seed=2)
        assert one != two

    def test_no_repeats_in_sample(self, cities):
        pairs = sample_city_pairs(cities, num_pairs=200)
        assert len({(p.a, p.b) for p in pairs}) == len(pairs)

    def test_oversampling_returns_all(self, cities):
        eligible = eligible_pairs(cities, 2_000e3)
        pairs = sample_city_pairs(cities, num_pairs=10 ** 9)
        assert len(pairs) == len(eligible)

    def test_pair_indices_valid(self, cities):
        for pair in sample_city_pairs(cities, num_pairs=100):
            assert 0 <= pair.a < len(cities)
            assert 0 <= pair.b < len(cities)


class TestGravityWeighting:
    def test_gravity_prefers_populous_cities(self, cities):
        uniform = sample_city_pairs(cities, num_pairs=400, weighting="uniform")
        gravity = sample_city_pairs(cities, num_pairs=400, weighting="gravity")

        def mean_pop(pairs):
            return np.mean(
                [
                    cities[p.a].population_k + cities[p.b].population_k
                    for p in pairs
                ]
            )

        assert mean_pop(gravity) > mean_pop(uniform)

    def test_gravity_still_respects_min_distance(self, cities):
        pairs = sample_city_pairs(cities, num_pairs=100, weighting="gravity")
        assert all(p.distance_m >= 2_000e3 for p in pairs)

    def test_gravity_no_repeats(self, cities):
        pairs = sample_city_pairs(cities, num_pairs=200, weighting="gravity")
        assert len({(p.a, p.b) for p in pairs}) == len(pairs)

    def test_gravity_deterministic(self, cities):
        one = sample_city_pairs(cities, num_pairs=50, weighting="gravity", seed=9)
        two = sample_city_pairs(cities, num_pairs=50, weighting="gravity", seed=9)
        assert one == two

    def test_unknown_weighting_rejected(self, cities):
        with pytest.raises(ValueError):
            sample_city_pairs(cities, num_pairs=10, weighting="antigravity")

    def test_scenario_field(self):
        from dataclasses import replace
        from repro.core.scenario import Scenario
        from tests.conftest import TINY_SCALE

        uniform = Scenario.paper_default("starlink", TINY_SCALE)
        gravity = replace(uniform, traffic_weighting="gravity")
        assert uniform.pairs != gravity.pairs


@lru_cache(maxsize=1)
def _eligible(num_cities):
    return eligible_pairs(load_cities(num_cities), 2_000e3)


def reference_sample(cities, num_pairs, seed, weighting):
    """The sampler as it was over the full :func:`eligible_pairs` list."""
    pairs = _eligible(len(cities))
    rng = np.random.default_rng(seed)
    if num_pairs >= len(pairs):
        order = rng.permutation(len(pairs))
        return [pairs[i] for i in order]
    if weighting == "uniform":
        chosen = rng.choice(len(pairs), size=num_pairs, replace=False)
    else:
        populations = np.array([c.population_k for c in cities], dtype=float)
        weights = np.array([populations[p.a] * populations[p.b] for p in pairs])
        weights = weights / weights.sum()
        chosen = rng.choice(len(pairs), size=num_pairs, replace=False, p=weights)
    return [pairs[i] for i in chosen]


class TestSamplingMatchesReference:
    """Index-based sampling draws exactly the pairs the list-based one did."""

    @pytest.mark.parametrize("num_cities", [60, 300, 1000])
    def test_same_pairs(self, num_cities):
        cities = load_cities(num_cities)
        for seed in (1, 7, 42):
            for num_pairs, weighting in [
                (500, "uniform"),
                (500, "gravity"),
                (10 ** 9, "uniform"),  # oversampling: all pairs, shuffled
            ]:
                got = sample_city_pairs(
                    cities, num_pairs, seed=seed, weighting=weighting
                )
                assert got == reference_sample(cities, num_pairs, seed, weighting)
