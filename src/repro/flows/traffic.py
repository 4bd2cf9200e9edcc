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
from repro.obs import incr, traced

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
    things for a pair list: each pair's source/target city, the sorted
    unique source cities (one batched Dijkstra serves every pair sharing
    a source), the grouping of pair indices by source, and a vertex
    cover of the pair graph (RTT is symmetric, so one Dijkstra from
    either endpoint serves a pair). All of it is pure pair-list data —
    independent of the snapshot graph — so it is computed once per
    distinct pair list (see :func:`pair_index`) instead of per pair per
    snapshot.
    """

    sources: np.ndarray  # (P,) source city of each pair
    targets: np.ndarray  # (P,) target city of each pair
    source_cities: np.ndarray  # (S,) unique source cities, ascending
    pair_order: np.ndarray  # (P,) pair indices grouped by source city
    source_ptr: np.ndarray  # (S + 1,) group boundaries into pair_order
    cover_cities: np.ndarray  # (C,) vertex cover of the pair graph, ascending
    cover_row: np.ndarray  # (P,) position in cover_cities of the endpoint read from
    cover_target: np.ndarray  # (P,) each pair's other endpoint

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


def _greedy_cover(sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """A vertex cover of the pair graph, ascending.

    Greedy and deterministic: each step takes the city with the most
    still-uncovered pairs, the lower city index on a tie, until every
    pair has an endpoint in the cover.
    """
    cities, ends = np.unique(np.concatenate([sources, targets]), return_inverse=True)
    ends = ends.reshape(2, -1)
    uncovered = np.ones(len(sources), dtype=bool)
    cover = []
    while uncovered.any():
        degree = np.bincount(ends[:, uncovered].ravel(), minlength=len(cities))
        pick = int(np.argmax(degree))
        cover.append(pick)
        uncovered &= (ends[0] != pick) & (ends[1] != pick)
    return cities[np.sort(np.asarray(cover, dtype=np.int64))]


@lru_cache(maxsize=64)
def _build_pair_index(key: tuple[tuple[int, int], ...]) -> PairIndex:
    sources = np.fromiter((a for a, _ in key), dtype=np.int64, count=len(key))
    targets = np.fromiter((b for _, b in key), dtype=np.int64, count=len(key))
    source_cities, source_row = np.unique(sources, return_inverse=True)
    pair_order = np.argsort(source_row, kind="stable")
    source_ptr = np.searchsorted(
        source_row[pair_order], np.arange(len(source_cities) + 1)
    )
    cover_cities = _greedy_cover(sources, targets)
    if len(cover_cities) > len(source_cities):
        cover_cities = source_cities  # also a cover; greedy is not optimal
    from_source = np.isin(sources, cover_cities)
    return PairIndex(
        sources=sources,
        targets=targets,
        source_cities=source_cities,
        pair_order=pair_order,
        source_ptr=source_ptr,
        cover_cities=cover_cities,
        cover_row=np.searchsorted(
            cover_cities, np.where(from_source, sources, targets)
        ),
        cover_target=np.where(from_source, targets, sources),
    )


def pair_index(pairs: list[CityPair]) -> PairIndex:
    """The (cached) :class:`PairIndex` of a pair list.

    Keyed on the (source, target) city tuples, so every scenario sweep
    over the same traffic matrix — every snapshot, every mode, every k —
    shares one index.
    """
    return _build_pair_index(tuple((p.a, p.b) for p in pairs))


def _eligible_pair_arrays(
    cities: tuple[City, ...],
    min_distance_m: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(a_idx, b_idx, dists)`` of every eligible pair, ``a < b``.

    Pairs come in row-major upper-triangle order — ascending ``a``, then
    ascending ``b`` — which fixes what each sampled index means.
    Vectorized: the full pairwise distance matrix for 1,000 cities is a
    million haversines, well within numpy territory.
    """
    lats = np.array([c.lat_deg for c in cities])
    lons = np.array([c.lon_deg for c in cities])
    dists = haversine_m(lats[:, None], lons[:, None], lats[None, :], lons[None, :])
    a_idx, b_idx = np.nonzero(np.triu(dists >= min_distance_m, k=1))
    incr("traffic.eligible_pairs", len(a_idx))
    return a_idx, b_idx, dists[a_idx, b_idx]


def _city_pairs(a_idx, b_idx, dists) -> list[CityPair]:
    return [
        CityPair(a, b, d)
        for a, b, d in zip(a_idx.tolist(), b_idx.tolist(), dists.tolist())
    ]


def eligible_pairs(
    cities: tuple[City, ...],
    min_distance_m: float = MIN_CITY_PAIR_DISTANCE_M,
) -> list[CityPair]:
    """Every unordered city pair separated by at least ``min_distance_m``.

    In ascending ``(a, b)`` order, the order :func:`sample_city_pairs`
    draws indices from. Builds one :class:`CityPair` per eligible pair
    (453k at the paper's 1,000 cities); the sampler itself never does.
    """
    return _city_pairs(*_eligible_pair_arrays(cities, min_distance_m))


@traced("pair_sampling")
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

    The draw works on indices into the eligible-pair arrays, in the order
    :func:`eligible_pairs` lists them: ``rng.permutation`` or
    ``rng.choice`` on their count, with gravity weights
    ``populations[a] * populations[b]`` elementwise. Only the drawn pairs
    become :class:`CityPair` objects. The ``rng`` calls, their arguments
    and the weight values are those of sampling from the full
    :func:`eligible_pairs` list, so the sample is the same pair for pair.
    """
    a_idx, b_idx, dists = _eligible_pair_arrays(cities, min_distance_m)
    count = len(a_idx)
    rng = np.random.default_rng(seed)
    if num_pairs >= count:
        chosen = rng.permutation(count)
    elif weighting == "uniform":
        chosen = rng.choice(count, size=num_pairs, replace=False)
    elif weighting == "gravity":
        populations = np.array([c.population_k for c in cities], dtype=float)
        weights = populations[a_idx] * populations[b_idx]
        weights = weights / weights.sum()
        chosen = rng.choice(count, size=num_pairs, replace=False, p=weights)
    else:
        raise ValueError(f"unknown weighting {weighting!r}")
    return _city_pairs(a_idx[chosen], b_idx[chosen], dists[chosen])
