"""Unit tests for relay grids and the assembled ground segment."""

import numpy as np
import pytest

from repro.geo.geodesy import haversine_m
from repro.geo.landmask import is_land
from repro.ground.relays import relay_grid, relay_grid_for_cities
from repro.ground.cities import load_cities
from repro.ground.stations import GroundSegment, StationKind


class TestRelayGrid:
    def test_all_relays_on_land(self):
        lats, lons = relay_grid(num_cities=30, spacing_deg=2.0)
        assert len(lats) > 0
        assert np.all(is_land(lats, lons))

    def test_all_relays_within_radius_of_some_city(self):
        cities = load_cities(30)
        lats, lons = relay_grid(num_cities=30, spacing_deg=2.0, radius_m=1_500e3)
        city_lats = np.array([c.lat_deg for c in cities])
        city_lons = np.array([c.lon_deg for c in cities])
        for lat, lon in zip(lats[::25], lons[::25]):  # spot-check subsample
            distances = haversine_m(city_lats, city_lons, lat, lon)
            assert distances.min() <= 1_500e3 + 1.0

    def test_caching_returns_same_arrays(self):
        one = relay_grid(num_cities=30, spacing_deg=2.0)
        two = relay_grid(num_cities=30, spacing_deg=2.0)
        assert one[0] is two[0]

    def test_spacing_controls_density(self):
        coarse = relay_grid_for_cities(load_cities(30), spacing_deg=4.0)
        fine = relay_grid_for_cities(load_cities(30), spacing_deg=2.0)
        assert len(fine[0]) > 2 * len(coarse[0])


class TestGroundSegment:
    @pytest.fixture(scope="class")
    def segment(self):
        return GroundSegment.build(num_cities=40, relay_spacing_deg=4.0)

    def test_station_table_layout(self, segment):
        table = segment.stations_at(0.0)
        assert table.city_count == 40
        assert table.relay_count == len(segment.relay_lats)
        assert table.total == table.city_count + table.relay_count + table.aircraft_count
        assert table.aircraft_count > 0

    def test_kind_of_partitions(self, segment):
        table = segment.stations_at(0.0)
        assert table.kind_of(0) is StationKind.CITY
        assert table.kind_of(table.city_count) is StationKind.RELAY
        assert table.kind_of(table.total - 1) is StationKind.AIRCRAFT
        with pytest.raises(IndexError):
            table.kind_of(table.total)

    def test_aircraft_move_between_snapshots(self, segment):
        table0 = segment.stations_at(0.0)
        table1 = segment.stations_at(1800.0)
        # Static blocks identical...
        static = table0.city_count + table0.relay_count
        np.testing.assert_allclose(table0.lats[:static], table1.lats[:static])
        # ...aircraft block changes (count and/or positions).
        if table0.aircraft_count == table1.aircraft_count:
            assert not np.allclose(
                table0.lats[static:], table1.lats[static:]
            )

    def test_aircraft_have_altitude(self, segment):
        table = segment.stations_at(0.0)
        static = table.city_count + table.relay_count
        assert np.all(table.altitudes[:static] == 0.0)
        assert np.all(table.altitudes[static:] == 11_000.0)

    def test_city_index_lookup(self, segment):
        idx = segment.city_index(segment.cities[5].name)
        assert idx == 5
        with pytest.raises(KeyError):
            segment.city_index("Atlantis")

    def test_disable_relays(self):
        segment = GroundSegment.build(num_cities=20, use_relays=False)
        table = segment.stations_at(0.0)
        assert table.relay_count == 0
        assert table.city_count == 20

    def test_disable_aircraft(self):
        segment = GroundSegment.build(
            num_cities=20, relay_spacing_deg=4.0, use_aircraft=False
        )
        table = segment.stations_at(0.0)
        assert table.aircraft_count == 0

    def test_custom_city_override(self):
        cities = load_cities(10)
        segment = GroundSegment.build(
            relay_spacing_deg=4.0, use_aircraft=False, cities=cities
        )
        assert segment.cities == cities
