"""Scenario definition: constellation + ground segment + traffic + cadence.

A :class:`Scenario` bundles everything an experiment needs. The paper's
full configuration (1,000 cities, 0.5-degree relays, 5,000 pairs, 96
snapshots) is expensive — minutes to hours of compute — so scenarios come
in *scales*. ``ScenarioScale.full()`` is the paper; ``small()`` and
``medium()`` keep every mechanism (aircraft, relays, ISLs, multipath) at
a size where tests and default-scale runs finish in seconds to
minutes. Each experiment takes its scale as its one argument;
``repro run --scale full`` hands it the paper's.

A fault spec is not part of a scenario: every graph a scenario builds
takes the run context's ``faults`` (``with run_context(faults=spec):``,
see :mod:`repro.faults`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from repro.constants import (
    MIN_CITY_PAIR_DISTANCE_M,
    NUM_CITY_PAIRS,
    NUM_SNAPSHOTS_PER_DAY,
    RELAY_GRID_SPACING_DEG,
    SNAPSHOT_INTERVAL_S,
)
from repro.context import current
from repro.core.engine import SnapshotEngine
from repro.flows.traffic import CityPair, sample_city_pairs
from repro.ground.stations import GroundSegment
from repro.network.graph import (
    ConnectivityMode,
    GsoProtectionPolicy,
    SnapshotGraph,
)
from repro.network.snapshots import snapshot_times
from repro.orbits.constellation import Constellation
from repro.orbits.presets import preset

__all__ = ["ScenarioScale", "Scenario"]


@dataclass(frozen=True)
class ScenarioScale:
    """Size knobs for a scenario; all mechanisms stay enabled at any scale."""

    name: str
    num_cities: int
    num_pairs: int
    relay_spacing_deg: float
    num_snapshots: int
    snapshot_interval_s: float = SNAPSHOT_INTERVAL_S

    def __post_init__(self):
        if self.num_cities < 2:
            raise ValueError("need at least 2 cities")
        if self.num_pairs < 1:
            raise ValueError("need at least 1 pair")
        if self.num_snapshots < 1:
            raise ValueError("need at least 1 snapshot")

    @classmethod
    def full(cls) -> "ScenarioScale":
        """The paper's configuration (Section 3/4)."""
        return cls(
            name="full",
            num_cities=1000,
            num_pairs=NUM_CITY_PAIRS,
            relay_spacing_deg=RELAY_GRID_SPACING_DEG,
            num_snapshots=NUM_SNAPSHOTS_PER_DAY,
        )

    @classmethod
    def medium(cls) -> "ScenarioScale":
        """Minutes-scale runs: 400 cities, 500 pairs, 24 snapshots."""
        return cls(
            name="medium",
            num_cities=400,
            num_pairs=500,
            relay_spacing_deg=1.0,
            num_snapshots=24,
            snapshot_interval_s=3600.0,
        )

    @classmethod
    def small(cls) -> "ScenarioScale":
        """Seconds-scale runs for tests and default runs."""
        return cls(
            name="small",
            num_cities=150,
            num_pairs=120,
            relay_spacing_deg=2.0,
            num_snapshots=8,
            snapshot_interval_s=3 * SNAPSHOT_INTERVAL_S,
        )

    @classmethod
    def throughput_bench(cls) -> "ScenarioScale":
        """Default scale for the throughput experiments (Figs. 4 and 5).

        Throughput ratios only take the paper's shape once links actually
        contend, which needs thousands of pairs — more than the generic
        ``small()`` scale carries. One snapshot suffices (the paper's
        Fig. 4/5 report aggregate throughput, not a time series).
        """
        return cls(
            name="throughput-bench",
            num_cities=300,
            num_pairs=1500,
            relay_spacing_deg=2.0,
            num_snapshots=1,
        )


#: Scenario fields that act in the engine's assembly layer only.
#: ``with_assembly`` accepts exactly these; everything else changes the
#: static or per-time layers and needs a fresh engine.
_ASSEMBLY_FIELDS = frozenset({"gso_policy", "fiber_max_km", "max_gts_per_satellite"})


@dataclass(frozen=True)
class Scenario:
    """A fully specified simulation setup.

    Build with :meth:`paper_default`; tweak with ``dataclasses.replace``
    or :meth:`with_assembly`. Heavyweight derived objects (ground
    segment, traffic matrix) are cached properties.
    """

    constellation: Constellation
    scale: ScenarioScale
    min_pair_distance_m: float = MIN_CITY_PAIR_DISTANCE_M
    aircraft_density_scale: float = 1.0
    use_relays: bool = True
    use_aircraft: bool = True
    traffic_seed: int = 42
    #: Pair-sampling law: "uniform" (the paper) or "gravity"
    #: (population-product weighted; see flows.traffic).
    traffic_weighting: str = "uniform"
    #: Cities guaranteed present regardless of scale (case studies name
    #: specific pairs: Maceio-Durban, Delhi-Sydney, Brisbane-Tokyo...).
    extra_city_names: tuple[str, ...] = ()
    #: Optional Section 7 GSO arc-avoidance constraint on radio links.
    gso_policy: "GsoProtectionPolicy | None" = None
    #: Optional Section 8 fiber augmentation: city GTs within this many
    #: km get terrestrial fiber edges. ``None`` disables (paper default).
    fiber_max_km: float | None = None
    #: Optional beam-count limit: each satellite serves at most this many
    #: GTs (closest first). ``None`` (paper default) leaves it unbounded.
    max_gts_per_satellite: int | None = None

    @classmethod
    def paper_default(
        cls,
        constellation: Constellation | str = "starlink",
        scale: ScenarioScale | None = None,
    ) -> "Scenario":
        """The paper's setup on a given constellation, at a given scale."""
        if isinstance(constellation, str):
            constellation = preset(constellation)
        return cls(constellation=constellation, scale=scale or ScenarioScale.small())

    def with_assembly(self, **overrides) -> "Scenario":
        """A variant differing only in assembly-layer knobs.

        Accepts ``gso_policy``, ``fiber_max_km`` and
        ``max_gts_per_satellite`` — the knobs applied *after* the cached
        static and per-time layers. The variant therefore shares this
        scenario's ground segment, traffic pairs, and
        :class:`SnapshotEngine`, so a policy sweep (e.g. GSO separation
        angles, fiber radii) that assembles every variant of one instant
        before moving to the next builds each geometry frame once instead
        of once per variant.
        """
        unknown = set(overrides) - _ASSEMBLY_FIELDS
        if unknown:
            raise TypeError(
                f"with_assembly only accepts assembly-layer fields "
                f"{sorted(_ASSEMBLY_FIELDS)}; got {sorted(unknown)}"
            )
        variant = replace(self, **overrides)
        # Propagate cached derived state that is invariant under
        # assembly-only overrides (including the engine: sharing it is
        # the whole point — frames are fault/policy-free geometry).
        for name in ("ground", "pairs", "times_s"):
            if name in self.__dict__:
                object.__setattr__(variant, name, self.__dict__[name])
        object.__setattr__(variant, "engine", self.engine)
        return variant

    @cached_property
    def ground(self) -> GroundSegment:
        cities = None
        if self.extra_city_names:
            from repro.ground.cities import city_by_name, load_cities

            base = list(load_cities(self.scale.num_cities))
            present = {c.name for c in base}
            for name in self.extra_city_names:
                if name not in present:
                    base.append(city_by_name(name))
                    present.add(name)
            cities = tuple(base)
        return GroundSegment.build(
            num_cities=self.scale.num_cities,
            relay_spacing_deg=self.scale.relay_spacing_deg,
            aircraft_density_scale=self.aircraft_density_scale,
            use_relays=self.use_relays,
            use_aircraft=self.use_aircraft,
            cities=cities,
        )

    def city_pair(self, name_a: str, name_b: str) -> CityPair:
        """A :class:`CityPair` for two named cities in this scenario."""
        from repro.geo.geodesy import haversine_m

        index_a = self.ground.city_index(name_a)
        index_b = self.ground.city_index(name_b)
        a, b = self.ground.cities[index_a], self.ground.cities[index_b]
        return CityPair(
            a=index_a,
            b=index_b,
            distance_m=float(
                haversine_m(a.lat_deg, a.lon_deg, b.lat_deg, b.lon_deg)
            ),
        )

    @cached_property
    def pairs(self) -> list[CityPair]:
        return sample_city_pairs(
            self.ground.cities,
            num_pairs=self.scale.num_pairs,
            min_distance_m=self.min_pair_distance_m,
            seed=self.traffic_seed,
            weighting=self.traffic_weighting,
        )

    @cached_property
    def times_s(self) -> np.ndarray:
        return snapshot_times(
            self.scale.num_snapshots, self.scale.snapshot_interval_s
        )

    @cached_property
    def engine(self) -> SnapshotEngine:
        """The layered snapshot engine backing :meth:`graph_at`.

        One engine per scenario (created lazily, dropped on pickling so
        worker processes build their own); assembly-only variants made
        with :meth:`with_assembly` share it. See
        :mod:`repro.core.engine` for the layering and cache rules.
        """
        return SnapshotEngine(self.constellation, self.ground)

    def graph_at(
        self, time_s: float, mode: ConnectivityMode
    ) -> SnapshotGraph:
        """Build the network graph for one snapshot of this scenario.

        The run context's fault spec (:mod:`repro.faults`) is read here
        and handed to the engine's assembly layer, so it can never be
        baked into a cached geometry frame.
        """
        return self.engine.graph_at(
            time_s,
            mode,
            gso_policy=self.gso_policy,
            fiber_max_km=self.fiber_max_km,
            max_gts_per_satellite=self.max_gts_per_satellite,
            faults=current().faults,
        )

    def __getstate__(self):
        """Pickle support: drop the engine (KD-trees, cached frames).

        Workers rebuild a process-local engine on first use, so a chunk
        of snapshots shares the static layer without shipping megabytes
        of cached geometry through the process pool.
        """
        state = dict(self.__dict__)
        state.pop("engine", None)
        return state
