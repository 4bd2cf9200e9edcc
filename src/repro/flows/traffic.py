"""Traffic-matrix construction (paper Section 3).

Traffic flows between city pairs at least 2,000 km apart along the
geodesic (closer pairs are better served by terrestrial networks). From
all eligible pairs over the 1,000-city set, the paper uniform-randomly
samples 5,000; we mirror that with a fixed seed so every experiment sees
the same matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.constants import MIN_CITY_PAIR_DISTANCE_M, NUM_CITY_PAIRS
from repro.geo.geodesy import haversine_m
from repro.ground.cities import City

__all__ = [
    "CityPair",
    "PairIndex",
    "eligible_pairs",
    "pair_index",
    "sample_city_pairs",
    "TRAFFIC_SEED",
]

#: Fixed seed making the sampled traffic matrix reproducible.
TRAFFIC_SEED = 42


@dataclass(frozen=True)
class CityPair:
    """One traffic-matrix entry: indices into the city list + geodesic."""

    a: int
    b: int
    distance_m: float


@dataclass(frozen=True)
class PairIndex:
    """Array view of a pair list, built once and shared across snapshots.

    Both the RTT pipeline and the routing layer repeatedly need the same
    three things for a pair list: each pair's source/target city, the
    sorted unique source cities (one batched Dijkstra serves every pair
    sharing a source), and the grouping of pair indices by source. All
    of it is pure pair-list data — independent of the snapshot graph —
    so it is computed once per distinct pair list (see
    :func:`pair_index`) instead of per pair per snapshot.
    """

    sources: np.ndarray  # (P,) source city of each pair
    targets: np.ndarray  # (P,) target city of each pair
    source_cities: np.ndarray  # (S,) unique source cities, ascending
    source_row: np.ndarray  # (P,) position of each pair's source in source_cities
    pair_order: np.ndarray  # (P,) pair indices grouped by source city
    source_ptr: np.ndarray  # (S + 1,) group boundaries into pair_order

    @property
    def num_pairs(self) -> int:
        return len(self.sources)

    def pairs_for_source(self, row: int) -> np.ndarray:
        """Pair indices whose source is ``source_cities[row]``."""
        return self.pair_order[self.source_ptr[row] : self.source_ptr[row + 1]]

    def gt_nodes(self, num_sats: int, city_count: int) -> tuple[np.ndarray, np.ndarray]:
        """Graph node ids of every pair's (source, target) city.

        Endpoints must be cities (station indices below ``city_count``):
        the contracted RTT graph keeps no other GT. Checked once per
        call instead of once per pair.
        """
        for arr in (self.sources, self.targets):
            bad = arr[(arr < 0) | (arr >= city_count)]
            if bad.size:
                raise IndexError(
                    f"pair endpoint {int(bad[0])} is not a city index "
                    f"(city_count={city_count})"
                )
        return num_sats + self.sources, num_sats + self.targets


@lru_cache(maxsize=64)
def _build_pair_index(key: tuple[tuple[int, int], ...]) -> PairIndex:
    sources = np.fromiter((a for a, _ in key), dtype=np.int64, count=len(key))
    targets = np.fromiter((b for _, b in key), dtype=np.int64, count=len(key))
    source_cities, source_row = np.unique(sources, return_inverse=True)
    pair_order = np.argsort(source_row, kind="stable")
    source_ptr = np.searchsorted(
        source_row[pair_order], np.arange(len(source_cities) + 1)
    )
    return PairIndex(
        sources=sources,
        targets=targets,
        source_cities=source_cities,
        source_row=np.asarray(source_row, dtype=np.int64),
        pair_order=pair_order,
        source_ptr=source_ptr,
    )


def pair_index(pairs: list[CityPair]) -> PairIndex:
    """The (cached) :class:`PairIndex` of a pair list.

    Keyed on the (source, target) city tuples, so every scenario sweep
    over the same traffic matrix — every snapshot, every mode, every k —
    shares one index.
    """
    return _build_pair_index(tuple((p.a, p.b) for p in pairs))


def eligible_pairs(
    cities: tuple[City, ...],
    min_distance_m: float = MIN_CITY_PAIR_DISTANCE_M,
) -> list[CityPair]:
    """Every unordered city pair separated by at least ``min_distance_m``.

    Vectorized: the full pairwise distance matrix for 1,000 cities is a
    million haversines, well within numpy territory.
    """
    lats = np.array([c.lat_deg for c in cities])
    lons = np.array([c.lon_deg for c in cities])
    dists = haversine_m(lats[:, None], lons[:, None], lats[None, :], lons[None, :])
    a_idx, b_idx = np.nonzero(np.triu(dists >= min_distance_m, k=1))
    return [
        CityPair(int(a), int(b), float(dists[a, b]))
        for a, b in zip(a_idx, b_idx)
    ]


def sample_city_pairs(
    cities: tuple[City, ...],
    num_pairs: int = NUM_CITY_PAIRS,
    min_distance_m: float = MIN_CITY_PAIR_DISTANCE_M,
    seed: int = TRAFFIC_SEED,
    weighting: str = "uniform",
) -> list[CityPair]:
    """Random sample of ``num_pairs`` eligible pairs (no repeats).

    ``weighting`` selects the sampling law:

    * ``"uniform"`` — the paper's model: every eligible pair equally
      likely;
    * ``"gravity"`` — pair probability proportional to the product of
      the two cities' populations (the classic traffic gravity model,
      sans distance decay since the >2,000 km floor already shapes the
      distance profile). Big metros attract proportionally more of the
      matrix, concentrating load on their up-links.

    If fewer eligible pairs exist than requested (tiny test scenarios),
    all of them are returned, shuffled.
    """
    pairs = eligible_pairs(cities, min_distance_m)
    rng = np.random.default_rng(seed)
    if num_pairs >= len(pairs):
        order = rng.permutation(len(pairs))
        return [pairs[i] for i in order]
    if weighting == "uniform":
        chosen = rng.choice(len(pairs), size=num_pairs, replace=False)
    elif weighting == "gravity":
        populations = np.array([c.population_k for c in cities], dtype=float)
        weights = np.array([populations[p.a] * populations[p.b] for p in pairs])
        weights = weights / weights.sum()
        chosen = rng.choice(len(pairs), size=num_pairs, replace=False, p=weights)
    else:
        raise ValueError(f"unknown weighting {weighting!r}")
    return [pairs[i] for i in chosen]
