"""Synthetic in-flight aircraft positions (FlightAware-trace substitute).

The paper supplements land relay GTs with all in-air commercial aircraft
flying over water (Section 3), using one day of FlightAware positions from
2018. We reproduce the *relay field* that trace provides with a
deterministic synthetic schedule:

* each route in :data:`repro.ground.airports.ROUTES` operates its daily
  one-way frequency in both directions;
* departures are staggered uniformly over the day with a per-route,
  seed-derived offset (no bunching artifacts at midnight);
* aircraft fly the great circle at cruise altitude/speed
  (:data:`repro.constants.AIRCRAFT_ALTITUDE_M`,
  :data:`repro.constants.AIRCRAFT_SPEED_MPS`);
* the schedule repeats daily, so an aircraft that departed "yesterday"
  evening is still airborne after midnight.

The over-water filter — only aircraft currently above water count as
relays — is applied at query time using the land mask, exactly mirroring
the paper's use of ``global-land-mask``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.constants import AIRCRAFT_ALTITUDE_M, AIRCRAFT_SPEED_MPS, SOLAR_DAY
from repro.geo.geodesy import haversine_m, lonlat_from_unit_vectors, unit_vectors
from repro.geo.landmask import is_land
from repro.ground.airports import AIRPORTS, ROUTES
from repro.integrity.validators import (
    LATITUDE,
    LONGITUDE,
    Column,
    InputValidationError,
    TableSpec,
)

__all__ = ["Flight", "FlightSchedule", "default_schedule"]

#: Fixed seed for the deterministic default schedule.
_SCHEDULE_SEED = 1804


@dataclass(frozen=True)
class Flight:
    """One scheduled flight leg repeating daily."""

    route: str
    origin_lat: float
    origin_lon: float
    dest_lat: float
    dest_lon: float
    departure_s: float
    duration_s: float


class FlightSchedule:
    """A full day's flights with vectorized position queries.

    Positions are computed by spherical linear interpolation between the
    endpoint unit vectors, vectorized across all airborne flights.
    """

    def __init__(self, flights: list[Flight]):
        self.flights = flights
        self._departures = np.array([f.departure_s for f in flights])
        self._durations = np.array([f.duration_s for f in flights])
        origin_vecs = unit_vectors(
            np.array([f.origin_lat for f in flights]),
            np.array([f.origin_lon for f in flights]),
        )
        dest_vecs = unit_vectors(
            np.array([f.dest_lat for f in flights]),
            np.array([f.dest_lon for f in flights]),
        )
        self._origin_vecs = origin_vecs
        self._dest_vecs = dest_vecs
        dots = np.clip(np.sum(origin_vecs * dest_vecs, axis=1), -1.0, 1.0)
        self._omegas = np.arccos(dots)

    def __len__(self) -> int:
        return len(self.flights)

    def airborne_mask(self, time_s: float) -> np.ndarray:
        """Boolean mask of flights in the air at ``time_s``."""
        t = time_s % SOLAR_DAY
        elapsed_today = t - self._departures
        elapsed_yesterday = elapsed_today + SOLAR_DAY
        in_air = (elapsed_today >= 0.0) & (elapsed_today <= self._durations)
        in_air |= (elapsed_yesterday >= 0.0) & (elapsed_yesterday <= self._durations)
        return in_air

    def positions_at(self, time_s: float, over_water_only: bool = True):
        """``(lats, lons)`` of airborne aircraft at ``time_s``.

        With ``over_water_only`` (the paper's setting) aircraft currently
        above land are excluded — they would be redundant next to the
        dense on-land relay grid.
        """
        t = time_s % SOLAR_DAY
        mask = self.airborne_mask(time_s)
        if not mask.any():
            empty = np.empty(0)
            return empty, empty

        elapsed = t - self._departures[mask]
        elapsed = np.where(elapsed < 0.0, elapsed + SOLAR_DAY, elapsed)
        fractions = np.clip(elapsed / self._durations[mask], 0.0, 1.0)

        omegas = self._omegas[mask]
        v1 = self._origin_vecs[mask]
        v2 = self._dest_vecs[mask]
        sin_omega = np.sin(omegas)
        # Degenerate (same-point) routes cannot occur: generation enforces
        # a positive distance, so sin_omega > 0 here.
        w1 = np.sin((1.0 - fractions) * omegas) / sin_omega
        w2 = np.sin(fractions * omegas) / sin_omega
        points = w1[:, None] * v1 + w2[:, None] * v2
        lats, lons = lonlat_from_unit_vectors(points)

        if over_water_only:
            over_water = ~is_land(lats, lons)
            lats, lons = lats[over_water], lons[over_water]
        return lats, lons

    def relay_positions_at(self, time_s: float):
        """``(lats, lons, altitudes)`` of usable aircraft relays at ``time_s``."""
        lats, lons = self.positions_at(time_s, over_water_only=True)
        return lats, lons, np.full(len(lats), AIRCRAFT_ALTITUDE_M)


#: Load-time validation of the embedded air tables: a transposed airport
#: coordinate or a route naming a missing airport would silently thin
#: the ocean relay field the paper's Fig. 3 depends on.
_AIRPORT_SPEC = TableSpec(
    name="airports.AIRPORTS",
    columns=(
        Column("code", kind="str"),
        Column("lat_deg", **LATITUDE),
        Column("lon_deg", **LONGITUDE),
    ),
    unique=("code",),
)
_ROUTE_SPEC = TableSpec(
    name="airports.ROUTES",
    columns=(
        Column("origin", kind="str"),
        Column("destination", kind="str"),
        Column("daily_frequency", kind="int", min_value=1),
    ),
    unique=("origin", "destination"),
)


def _validate_air_tables() -> None:
    _AIRPORT_SPEC.validate(
        [(code, lat, lon) for code, (lat, lon) in AIRPORTS.items()]
    )
    _ROUTE_SPEC.validate(ROUTES)
    for row, (origin, dest, _) in enumerate(ROUTES):
        for column, code in (("origin", origin), ("destination", dest)):
            if code not in AIRPORTS:
                raise InputValidationError(
                    f"unknown airport {code!r}",
                    source="airports.ROUTES", row=row, column=column,
                )
        if origin == dest:
            raise InputValidationError(
                f"route {origin!r} -> {dest!r} has identical endpoints",
                source="airports.ROUTES", row=row, column="destination",
            )


def _build_flights(seed: int, density_scale: float) -> list[Flight]:
    _validate_air_tables()
    rng = np.random.default_rng(seed)
    flights: list[Flight] = []
    for origin, dest, frequency in ROUTES:
        scaled = frequency * density_scale
        count = int(scaled)
        # Probabilistically round fractional frequencies so sweeps over
        # density_scale change sparse corridors too.
        if rng.random() < scaled - count:
            count += 1
        if count <= 0:
            continue
        (olat, olon), (dlat, dlon) = AIRPORTS[origin], AIRPORTS[dest]
        distance = float(haversine_m(olat, olon, dlat, dlon))
        duration = distance / AIRCRAFT_SPEED_MPS
        for direction, (a, b) in enumerate((((olat, olon), (dlat, dlon)),
                                            ((dlat, dlon), (olat, olon)))):
            offset = float(rng.uniform(0.0, SOLAR_DAY))
            for k in range(count):
                departure = (offset + k * SOLAR_DAY / count) % SOLAR_DAY
                flights.append(
                    Flight(
                        route=f"{origin}-{dest}" if direction == 0 else f"{dest}-{origin}",
                        origin_lat=a[0],
                        origin_lon=a[1],
                        dest_lat=b[0],
                        dest_lon=b[1],
                        departure_s=departure,
                        duration_s=duration,
                    )
                )
    return flights


@lru_cache(maxsize=4)
def default_schedule(density_scale: float = 1.0, seed: int = _SCHEDULE_SEED) -> FlightSchedule:
    """The standard one-day schedule; ``density_scale`` supports ablations.

    ``density_scale=1`` approximates real 2018 corridor volumes;
    the D5 ablation in DESIGN.md sweeps it to probe Fig. 3 sensitivity.
    """
    if density_scale < 0:
        raise ValueError("density_scale must be non-negative")
    return FlightSchedule(_build_flights(seed, density_scale))
