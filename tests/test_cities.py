"""Unit tests for the city dataset and the 1,000-city loader."""

import numpy as np
import pytest

from repro.geo.geodesy import haversine_m
from repro.geo.landmask import is_land
from repro.ground import cities
from repro.ground.city_data import RAW_CITIES


PAPER_CITIES = [
    "Maceio",
    "Durban",
    "Delhi",
    "Sydney",
    "Brisbane",
    "Tokyo",
    "Paris",
    "New York",
    "London",
]


class TestRawTable:
    def test_table_is_large(self):
        # The real table now exceeds the paper's 1,000-city requirement,
        # so the standard city set contains no synthetic entries at all.
        assert len(RAW_CITIES) >= 1000

    def test_no_duplicate_names(self):
        names = [name for name, *_ in RAW_CITIES]
        assert len(names) == len(set(names))

    def test_coordinates_in_range(self):
        for name, _, lat, lon, pop in RAW_CITIES:
            assert -90 <= lat <= 90, name
            assert -180 <= lon < 180, name
            assert pop > 0, name

    @pytest.mark.parametrize("name", PAPER_CITIES)
    def test_paper_named_cities_present(self, name):
        assert any(city[0] == name for city in RAW_CITIES)

    def test_all_cities_on_land(self):
        lats = np.array([c[2] for c in RAW_CITIES])
        lons = np.array([c[3] for c in RAW_CITIES])
        on_land = is_land(lats, lons)
        offenders = [RAW_CITIES[i][0] for i in np.nonzero(~on_land)[0]]
        # A tiny number of small-island cities may fall outside the coarse
        # polygons; the bulk must be on land.
        assert len(offenders) <= 5, offenders


class TestLoadCities:
    def test_returns_requested_count(self):
        assert len(cities.load_cities(100)) == 100
        assert len(cities.load_cities(1000)) == 1000

    def test_sorted_by_population(self):
        loaded = cities.load_cities(200)
        populations = [c.population_k for c in loaded]
        assert populations == sorted(populations, reverse=True)

    def test_deterministic(self):
        first = cities.load_cities(1000)
        second = cities.load_cities(1000)
        assert first == second

    def test_top_1000_is_fully_real(self):
        loaded = cities.load_cities(1000)
        assert all(not c.synthetic for c in loaded)

    def test_synthetic_tail_flagged_beyond_real_table(self):
        n = cities.real_city_count() + 40
        loaded = cities.load_cities(n)
        real_count = cities.real_city_count()
        assert all(not c.synthetic for c in loaded[:real_count])
        assert all(c.synthetic for c in loaded[real_count:])
        assert len(loaded) == n

    def test_synthetic_cities_on_land(self):
        loaded = cities.load_cities(cities.real_city_count() + 40)
        synth = [c for c in loaded if c.synthetic]
        assert len(synth) == 40
        lats = np.array([c.lat_deg for c in synth])
        lons = np.array([c.lon_deg for c in synth])
        assert np.all(is_land(lats, lons))

    def test_synthetic_populations_below_real_minimum(self):
        loaded = cities.load_cities(cities.real_city_count() + 40)
        real_min = min(c.population_k for c in loaded if not c.synthetic)
        assert all(c.population_k <= real_min for c in loaded if c.synthetic)

    def test_names_unique(self):
        loaded = cities.load_cities(cities.real_city_count() + 40)
        names = [c.name for c in loaded]
        assert len(names) == len(set(names))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cities.load_cities(0)

    def test_small_request_is_prefix_of_larger(self):
        small = cities.load_cities(50)
        large = cities.load_cities(100)
        assert large[:50] == small


class TestCityByName:
    def test_lookup(self):
        tokyo = cities.city_by_name("Tokyo")
        assert tokyo.country == "Japan"
        assert tokyo.lat_deg == pytest.approx(35.68, abs=0.1)

    def test_missing_raises_with_hint(self):
        with pytest.raises(KeyError, match="York"):
            cities.city_by_name("York New")

    def test_distance_between_cities(self):
        london = cities.city_by_name("London")
        nyc = cities.city_by_name("New York")
        distance = haversine_m(london.lat_deg, london.lon_deg, nyc.lat_deg, nyc.lon_deg)
        assert distance == pytest.approx(5_570e3, rel=0.02)
