"""City objects and the paper's 1,000-city source/sink set.

:func:`load_cities` returns the ``n`` most populous cities. The embedded
real table (:mod:`repro.ground.city_data`) holds the large cities; if more
are requested than the table provides, the tail is synthesized with a
documented, seeded procedure (satellite towns near population centres, on
land, with populations continuing the real table's Zipf-like tail). The
tail cities are small and numerous — exactly the role they play in the
paper's traffic matrix, where most pairs involve at least one modest city.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.geo.geodesy import destination_point, haversine_m
from repro.geo.landmask import is_land
from repro.ground.city_data import RAW_CITIES
from repro.integrity.validators import LATITUDE, LONGITUDE, Column, TableSpec

__all__ = ["City", "load_cities", "city_by_name", "real_city_count"]

#: Seed for the deterministic synthetic-city tail.
_SYNTH_SEED = 20201104  # HotNets '20 start date.


@dataclass(frozen=True)
class City:
    """A populated place acting as a traffic source/sink (and relay)."""

    name: str
    country: str
    lat_deg: float
    lon_deg: float
    population_k: float
    synthetic: bool = False


def real_city_count() -> int:
    """Number of cities in the embedded real table."""
    return len(RAW_CITIES)


#: Load-time validation of the embedded city table: a transposed lat/lon
#: or duplicated row here would silently reshape the traffic matrix.
_CITY_SPEC = TableSpec(
    name="city_data.RAW_CITIES",
    columns=(
        Column("name", kind="str"),
        Column("country", kind="str"),
        Column("lat_deg", **LATITUDE),
        Column("lon_deg", **LONGITUDE),
        Column("population_k", kind="float", min_value=1e-6),
    ),
    unique=("name", "country"),
)


def _real_cities() -> list[City]:
    _CITY_SPEC.validate(RAW_CITIES)
    cities = [
        City(name, country, float(lat), float(lon), float(pop))
        for name, country, lat, lon, pop in RAW_CITIES
    ]
    cities.sort(key=lambda c: (-c.population_k, c.name))
    return cities


def _synthesize_tail(base: list[City], count: int) -> list[City]:
    """Deterministically generate ``count`` satellite towns near real cities.

    Each synthetic city anchors to a real city chosen with probability
    proportional to population (big metros have more satellite towns),
    then walks a random bearing 80-700 km out and keeps the location if it
    lands on land and is not within 25 km of an already-placed city.
    Populations continue downward from the smallest real city following a
    power-law tail, matching the flat bottom of a real top-1000 list.
    """
    rng = np.random.default_rng(_SYNTH_SEED)
    weights = np.array([c.population_k for c in base], dtype=float)
    weights /= weights.sum()
    min_pop = min(c.population_k for c in base)

    placed_lats = [c.lat_deg for c in base]
    placed_lons = [c.lon_deg for c in base]
    tail: list[City] = []
    attempts = 0
    max_attempts = count * 200
    while len(tail) < count and attempts < max_attempts:
        attempts += 1
        anchor = base[int(rng.choice(len(base), p=weights))]
        bearing = float(rng.uniform(0.0, 360.0))
        distance = float(rng.uniform(80e3, 700e3))
        lat, lon = destination_point(anchor.lat_deg, anchor.lon_deg, bearing, distance)
        lat, lon = float(lat), float(lon)
        if not bool(is_land(lat, lon)):
            continue
        separation = haversine_m(
            np.array(placed_lats), np.array(placed_lons), lat, lon
        )
        if np.min(separation) < 25e3:
            continue
        rank = len(tail) + 1
        population = min_pop * (1.0 + rank) ** -0.35
        tail.append(
            City(
                name=f"Synth-{rank:03d} ({anchor.name})",
                country=anchor.country,
                lat_deg=lat,
                lon_deg=lon,
                population_k=round(population, 1),
                synthetic=True,
            )
        )
        placed_lats.append(lat)
        placed_lons.append(lon)
    if len(tail) < count:
        raise RuntimeError(
            f"could only synthesize {len(tail)}/{count} tail cities; "
            "land mask may be broken"
        )
    return tail


@lru_cache(maxsize=8)
def load_cities(n: int = 1000) -> tuple[City, ...]:
    """The ``n`` most populous cities (real first, synthetic tail after).

    Deterministic: the same ``n`` always returns the same tuple. Raises
    ``ValueError`` for non-positive ``n``.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    base = _real_cities()
    if n <= len(base):
        return tuple(base[:n])
    tail = _synthesize_tail(base, n - len(base))
    return tuple(base + tail)


def city_by_name(name: str, n: int | None = None) -> City:
    """Look up a city by exact name.

    Searches ``load_cities(n)``; by default the whole real table (which
    exceeds 1,000 entries, so small named cities like Orleans or Chartres
    resolve even though they fall outside the top-1000 population cut).
    Raises ``KeyError`` with close-match hints if not found.
    """
    cities = load_cities(n if n is not None else real_city_count())
    for city in cities:
        if city.name == name:
            return city
    lowered = name.lower()
    hints = [c.name for c in cities if lowered in c.name.lower()]
    raise KeyError(
        f"no city named {name!r}"
        + (f"; close matches: {', '.join(hints[:5])}" if hints else "")
    )
