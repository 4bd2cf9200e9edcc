"""Unit tests for the synthetic flight schedule and aircraft relays."""

import numpy as np
import pytest

from repro.constants import AIRCRAFT_SPEED_MPS, SOLAR_DAY
from repro.geo.geodesy import haversine_m
from repro.geo.landmask import is_land
from repro.ground import aircraft
from repro.ground.airports import AIRPORTS, ROUTES


class TestRouteTable:
    def test_all_route_airports_exist(self):
        for origin, dest, _ in ROUTES:
            assert origin in AIRPORTS
            assert dest in AIRPORTS

    def test_frequencies_positive(self):
        assert all(freq > 0 for _, _, freq in ROUTES)

    def test_no_self_routes(self):
        assert all(origin != dest for origin, dest, _ in ROUTES)

    def test_airport_coordinates_in_range(self):
        for code, (lat, lon) in AIRPORTS.items():
            assert -90 <= lat <= 90, code
            assert -180 <= lon < 180, code

    def test_corridor_asymmetry_in_table(self):
        """North Atlantic route volume must dwarf the South Atlantic's."""

        def volume(codes_a, codes_b):
            return sum(
                f
                for o, d, f in ROUTES
                if (o in codes_a and d in codes_b) or (o in codes_b and d in codes_a)
            )

        na_east = {"JFK", "EWR", "BOS", "IAD", "ATL", "MIA", "ORD", "YYZ", "YUL", "DFW", "IAH", "SEA", "SFO", "LAX", "DEN"}
        europe = {"LHR", "CDG", "FRA", "AMS", "MAD", "LIS", "FCO", "DUB", "KEF", "ZRH", "IST", "WAW"}
        south_america = {"GRU", "GIG", "EZE", "SCL", "REC", "FOR", "MVD"}
        africa_south = {"JNB", "CPT", "DUR", "LAD", "ADD", "LOS"}
        assert volume(na_east, europe) > 10 * volume(south_america, africa_south)


class TestFlightSchedule:
    @pytest.fixture(scope="class")
    def schedule(self):
        return aircraft.default_schedule()

    def test_schedule_size(self, schedule):
        # Two directions of every route instance.
        assert len(schedule) == 2 * sum(f for _, _, f in ROUTES)

    def test_deterministic(self):
        one = aircraft.default_schedule()
        two = aircraft.default_schedule()
        assert one is two  # lru_cache
        fresh = aircraft.FlightSchedule(one.flights)
        lats1, lons1 = one.positions_at(3600.0)
        lats2, lons2 = fresh.positions_at(3600.0)
        np.testing.assert_allclose(lats1, lats2)
        np.testing.assert_allclose(lons1, lons2)

    def test_some_aircraft_always_airborne(self, schedule):
        for t in np.linspace(0, SOLAR_DAY, 13):
            lats, _ = schedule.positions_at(float(t), over_water_only=False)
            assert len(lats) > 100

    def test_over_water_filter_works(self, schedule):
        lats, lons = schedule.positions_at(7200.0, over_water_only=True)
        assert len(lats) > 0
        assert not np.any(is_land(lats, lons))

    def test_over_water_subset_of_all(self, schedule):
        all_lats, _ = schedule.positions_at(7200.0, over_water_only=False)
        water_lats, _ = schedule.positions_at(7200.0, over_water_only=True)
        assert len(water_lats) < len(all_lats)

    def test_north_atlantic_denser_than_south(self, schedule):
        """The Fig. 3 precondition, measured on actual positions."""
        na_total, sa_total = 0, 0
        for t in np.linspace(0, SOLAR_DAY, 9):
            lats, lons = schedule.positions_at(float(t))
            na_total += int(np.sum((lats > 35) & (lats < 62) & (lons > -60) & (lons < -10)))
            sa_total += int(np.sum((lats < 0) & (lats > -40) & (lons > -35) & (lons < 10)))
        assert na_total > 5 * max(sa_total, 1)
        assert sa_total > 0  # But the South Atlantic is not empty.

    def test_relay_positions_altitude(self, schedule):
        lats, lons, alts = schedule.relay_positions_at(0.0)
        assert np.all(alts == 11_000.0)
        assert len(lats) == len(lons) == len(alts)

    def test_density_scale_changes_fleet(self):
        half = aircraft.default_schedule(density_scale=0.5)
        full = aircraft.default_schedule(density_scale=1.0)
        assert len(half) < len(full)

    def test_zero_density(self):
        empty = aircraft.default_schedule(density_scale=0.0)
        assert len(empty) == 0
        lats, lons = empty.positions_at(0.0)
        assert len(lats) == 0

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError):
            aircraft.default_schedule(density_scale=-1.0)


def _progress(flight, time_s):
    """Fraction of an equatorial eastbound flight flown at ``time_s``.

    Read off the vectorized schedule: ``None`` when not airborne, else
    the aircraft's longitude over the route's.
    """
    schedule = aircraft.FlightSchedule([flight])
    if not schedule.airborne_mask(time_s)[0]:
        return None
    (lat,), (lon,) = schedule.positions_at(time_s, over_water_only=False)
    assert lat == pytest.approx(0.0, abs=1e-9)
    return (lon - flight.origin_lon) / (flight.dest_lon - flight.origin_lon)


class TestFlight:
    def test_progress_within_flight(self):
        flight = aircraft.Flight(
            route="A-B",
            origin_lat=0.0,
            origin_lon=0.0,
            dest_lat=0.0,
            dest_lon=50.0,
            departure_s=1000.0,
            duration_s=20000.0,
        )
        assert _progress(flight, 1000.0) == pytest.approx(0.0)
        assert _progress(flight, 11000.0) == pytest.approx(0.5)
        assert _progress(flight, 21000.0) == pytest.approx(1.0)
        assert _progress(flight, 22000.0) is None
        assert _progress(flight, 0.0) is None

    def test_midnight_wrap(self):
        flight = aircraft.Flight(
            route="A-B",
            origin_lat=0.0,
            origin_lon=0.0,
            dest_lat=0.0,
            dest_lon=50.0,
            departure_s=SOLAR_DAY - 3600.0,
            duration_s=7200.0,
        )
        # At midnight the flight (departed an hour ago yesterday) is half done.
        assert _progress(flight, 0.0) == pytest.approx(0.5)
        # An hour after midnight it is just landing.
        assert _progress(flight, 3600.0) == pytest.approx(1.0)

    def test_positions_lie_near_great_circle(self):
        schedule = aircraft.default_schedule()
        flight = schedule.flights[0]
        # Sample the flight's own position midway via the vectorized path.
        t = flight.departure_s + flight.duration_s / 2.0
        mask = schedule.airborne_mask(t)
        assert mask[0]
        lats, lons = schedule.positions_at(t, over_water_only=False)
        # The first airborne flight in the arrays is flight 0.
        idx = int(np.nonzero(mask)[0].tolist().index(0))
        mid_lat, mid_lon = lats[idx], lons[idx]
        d_origin = haversine_m(flight.origin_lat, flight.origin_lon, mid_lat, mid_lon)
        d_dest = haversine_m(mid_lat, mid_lon, flight.dest_lat, flight.dest_lon)
        total = haversine_m(
            flight.origin_lat, flight.origin_lon, flight.dest_lat, flight.dest_lon
        )
        assert d_origin + d_dest == pytest.approx(total, rel=1e-6)
        assert d_origin == pytest.approx(total / 2.0, rel=1e-6)

    def test_duration_consistent_with_speed(self):
        schedule = aircraft.default_schedule()
        for flight in schedule.flights[:20]:
            distance = haversine_m(
                flight.origin_lat, flight.origin_lon, flight.dest_lat, flight.dest_lon
            )
            assert flight.duration_s == pytest.approx(
                float(distance) / AIRCRAFT_SPEED_MPS, rel=1e-9
            )
