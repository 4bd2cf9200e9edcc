"""Ground transceiver (GT) types and the assembled ground segment.

The paper's ground segment (Section 3) has three GT populations:

* **city GTs** — at the 1,000 most populous cities; both traffic
  sources/sinks and transit relays;
* **relay GTs** — transit-only, on a 0.5-degree land grid within
  2,000 km of the cities;
* **aircraft GTs** — transit-only, in-flight commercial aircraft over
  water (time-varying).

:class:`GroundSegment` holds the static populations plus the flight
schedule, and materializes the full time-varying GT table per snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.ground.aircraft import FlightSchedule, default_schedule
from repro.ground.cities import City, load_cities
from repro.ground.relays import relay_grid_for_cities
from repro.obs import incr, span, traced

__all__ = ["StationKind", "GroundStation", "GroundSegment", "StationTable"]


class StationKind(Enum):
    """Role of a ground transceiver in the network."""

    CITY = "city"
    RELAY = "relay"
    AIRCRAFT = "aircraft"


@dataclass(frozen=True)
class GroundStation:
    """A single GT: location plus role."""

    name: str
    kind: StationKind
    lat_deg: float
    lon_deg: float
    altitude_m: float = 0.0

    @property
    def is_endpoint(self) -> bool:
        """Whether traffic may originate/terminate here (cities only)."""
        return self.kind is StationKind.CITY


@dataclass(frozen=True)
class StationTable:
    """Column-oriented GT table for one snapshot (fast numpy access).

    Index layout: cities first (same order as the city list), then land
    relays, then aircraft. ``city_count`` and ``relay_count`` let callers
    slice roles without materializing objects.
    """

    lats: np.ndarray
    lons: np.ndarray
    altitudes: np.ndarray
    city_count: int
    relay_count: int

    @property
    def total(self) -> int:
        return len(self.lats)

    @property
    def aircraft_count(self) -> int:
        return self.total - self.city_count - self.relay_count

    def kind_of(self, index: int) -> StationKind:
        """Role of the GT at a station-table index."""
        if index < 0 or index >= self.total:
            raise IndexError(f"GT index {index} out of range")
        if index < self.city_count:
            return StationKind.CITY
        if index < self.city_count + self.relay_count:
            return StationKind.RELAY
        return StationKind.AIRCRAFT


@dataclass(frozen=True)
class GroundSegment:
    """The full ground segment of a scenario.

    ``use_relays`` / ``use_aircraft`` let experiments strip relay
    populations (the hybrid/ISL attenuation analysis in Section 6 excludes
    intermediate GTs entirely, and ablations vary relay density).
    """

    cities: tuple[City, ...]
    relay_lats: np.ndarray
    relay_lons: np.ndarray
    schedule: FlightSchedule | None
    use_relays: bool = True
    use_aircraft: bool = True

    @classmethod
    @traced("ground_build")
    def build(
        cls,
        num_cities: int = 1000,
        relay_spacing_deg: float = 0.5,
        relay_radius_m: float = 2_000_000.0,
        aircraft_density_scale: float = 1.0,
        use_relays: bool = True,
        use_aircraft: bool = True,
        cities: tuple[City, ...] | None = None,
    ) -> "GroundSegment":
        """Assemble the paper's ground segment with optional ablation knobs.

        ``cities`` overrides the top-``num_cities`` selection — case-study
        experiments use it to guarantee specific cities (Maceio, Durban,
        Delhi, Sydney...) are present at reduced scales.
        """
        if cities is None:
            cities = load_cities(num_cities)
        if use_relays:
            with span("relay_grid"):
                relay_lats, relay_lons = relay_grid_for_cities(
                    cities, spacing_deg=relay_spacing_deg, radius_m=relay_radius_m
                )
            incr("ground.relays", len(relay_lats))
        else:
            relay_lats = np.empty(0)
            relay_lons = np.empty(0)
        schedule = default_schedule(aircraft_density_scale) if use_aircraft else None
        return cls(
            cities=cities,
            relay_lats=relay_lats,
            relay_lons=relay_lons,
            schedule=schedule,
            use_relays=use_relays,
            use_aircraft=use_aircraft,
        )

    @property
    def city_count(self) -> int:
        return len(self.cities)

    @property
    def relay_count(self) -> int:
        return len(self.relay_lats) if self.use_relays else 0

    def city_index(self, name: str) -> int:
        """Index of a city GT in the station table, by exact city name."""
        for i, city in enumerate(self.cities):
            if city.name == name:
                return i
        raise KeyError(f"no city named {name!r} in this ground segment")

    def stations_at(self, time_s: float) -> StationTable:
        """Materialize the GT table for the snapshot at ``time_s``."""
        city_lats = np.array([c.lat_deg for c in self.cities])
        city_lons = np.array([c.lon_deg for c in self.cities])
        parts_lat = [city_lats]
        parts_lon = [city_lons]
        parts_alt = [np.zeros(len(self.cities))]
        relay_count = 0
        if self.use_relays and len(self.relay_lats):
            parts_lat.append(self.relay_lats)
            parts_lon.append(self.relay_lons)
            parts_alt.append(np.zeros(len(self.relay_lats)))
            relay_count = len(self.relay_lats)
        if self.use_aircraft and self.schedule is not None:
            air_lats, air_lons, air_alts = self.schedule.relay_positions_at(time_s)
            if len(air_lats):
                parts_lat.append(air_lats)
                parts_lon.append(air_lons)
                parts_alt.append(air_alts)
        return StationTable(
            lats=np.concatenate(parts_lat),
            lons=np.concatenate(parts_lon),
            altitudes=np.concatenate(parts_alt),
            city_count=len(self.cities),
            relay_count=relay_count,
        )
