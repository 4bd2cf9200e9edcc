"""Ground segment substrate: cities, relay grids, aircraft, GT tables."""

from repro.ground.aircraft import Flight, FlightSchedule, default_schedule
from repro.ground.cities import City, city_by_name, load_cities, real_city_count
from repro.ground.relays import relay_grid, relay_grid_for_cities
from repro.ground.stations import (
    GroundSegment,
    StationKind,
    StationTable,
)

__all__ = [
    "City",
    "load_cities",
    "city_by_name",
    "real_city_count",
    "relay_grid",
    "relay_grid_for_cities",
    "Flight",
    "FlightSchedule",
    "default_schedule",
    "GroundSegment",
    "StationKind",
    "StationTable",
]
