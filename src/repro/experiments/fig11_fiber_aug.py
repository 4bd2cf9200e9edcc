"""Fig. 11 — fiber augmentation: Paris + 5 nearby cities as distributed GTs.

A congested metro can route some traffic over terrestrial fiber to
nearby smaller cities and use *their* satellite visibility, multiplying
the ground-satellite capacity available to the metro. The paper sketches
this for Paris with 5 neighbouring cities.

We quantify: per snapshot, the number of distinct satellites visible
from Paris alone versus the union over Paris + neighbours, and hence the
up/down capacity multiplication the distributed-GT trick achieves.
"""

from __future__ import annotations

import numpy as np

from repro.core.scenario import ScenarioScale
from repro.experiments.base import ExperimentResult, register
from repro.ground.cities import city_by_name
from repro.network.snapshots import snapshot_times
from repro.orbits.coordinates import geodetic_to_ecef
from repro.orbits.presets import starlink
from repro.orbits.visibility import elevation_deg
from repro.reporting.tables import format_summary, format_table

__all__ = ["run", "METRO", "NEIGHBOURS"]

METRO = "Paris"
#: Real cities within ~100-150 km of Paris with good fiber connectivity.
NEIGHBOURS = ("Orleans", "Rouen", "Reims", "Amiens", "Chartres")


def _visible_sats(constellation, lat, lon, time_s, min_elevation_deg):
    sats = constellation.positions_ecef(time_s)
    gt = geodetic_to_ecef(lat, lon, 0.0)
    elevations = elevation_deg(gt[None, :], sats)
    return set(np.nonzero(elevations >= min_elevation_deg)[0].tolist())


@register("fig11")
def run(scale: ScenarioScale = ScenarioScale.small()) -> ExperimentResult:
    """Run this experiment; see the module docstring for the design."""
    constellation = starlink()
    min_elev = constellation.shells[0].min_elevation_deg
    metro = city_by_name(METRO)
    neighbours = [city_by_name(name) for name in NEIGHBOURS]

    times = snapshot_times(scale.num_snapshots, scale.snapshot_interval_s)
    rows = []
    metro_counts, union_counts = [], []
    for time_s in times:
        metro_sats = _visible_sats(
            constellation, metro.lat_deg, metro.lon_deg, float(time_s), min_elev
        )
        union_sats = set(metro_sats)
        for city in neighbours:
            union_sats |= _visible_sats(
                constellation, city.lat_deg, city.lon_deg, float(time_s), min_elev
            )
        metro_counts.append(len(metro_sats))
        union_counts.append(len(union_sats))
        rows.append(
            [
                f"{time_s / 60:.0f} min",
                len(metro_sats),
                len(union_sats),
                f"{len(union_sats) / max(len(metro_sats), 1):.2f}x",
            ]
        )

    metro_arr = np.asarray(metro_counts, dtype=float)
    union_arr = np.asarray(union_counts, dtype=float)
    table = format_table(
        ["snapshot", f"sats visible from {METRO}", "sats visible from group", "multiplier"],
        rows,
        title=f"Fig 11: distributed-GT visibility for {METRO} + {len(NEIGHBOURS)} cities",
    )
    headline = {
        f"mean satellites visible from {METRO} alone": round(float(metro_arr.mean()), 1),
        "mean satellites visible from the fiber group": round(float(union_arr.mean()), 1),
        "mean capacity multiplication": round(float((union_arr / np.maximum(metro_arr, 1)).mean()), 2),
    }
    return ExperimentResult(
        experiment_id="fig11",
        title="Fiber augmentation of metro GT capacity",
        scale_name=scale.name,
        tables=[table, format_summary("Fig 11 headline", headline)],
        data={"metro_counts": metro_arr, "union_counts": union_arr},
        headline=headline,
    )
