"""Fig. 9 — GSO arc avoidance: reachable sky near the Equator.

LEO up/down-links must keep an angular separation from the geostationary
arc (Starlink: 22 degrees, at 40 degrees minimum elevation for full
deployment). At the Equator the GSO arc passes overhead, splitting the
usable sky into two small lobes; at higher latitudes the arc sinks
toward the horizon and the restriction fades.

We quantify the solid-angle fraction of the above-minimum-elevation sky
that remains usable, as a function of GT latitude — the geometric fact
behind the paper's argument that BP's equatorial transit GTs are hit much
harder than ISL paths (which only expose endpoints).
"""

from __future__ import annotations


from repro.constants import (
    KUIPER_GSO_SEPARATION_FINAL_DEG,
    STARLINK_FULL_DEPLOYMENT_MIN_ELEVATION_DEG,
    STARLINK_GSO_SEPARATION_DEG,
)
from repro.core.scenario import ScenarioScale
from repro.experiments.base import ExperimentResult, register
from repro.orbits.visibility import reachable_sky_fraction
from repro.reporting.tables import format_summary, format_table

__all__ = ["run"]

LATITUDES = (0.0, 5.0, 10.0, 15.0, 20.0, 30.0, 40.0, 50.0, 60.0)


@register("fig9")
def run(scale: ScenarioScale = ScenarioScale.small()) -> ExperimentResult:
    """Run this experiment; see the module docstring for the design."""
    rows = []
    starlink_fraction = {}
    for lat in LATITUDES:
        starlink = reachable_sky_fraction(
            lat,
            STARLINK_FULL_DEPLOYMENT_MIN_ELEVATION_DEG,
            STARLINK_GSO_SEPARATION_DEG,
        )
        kuiper = reachable_sky_fraction(
            lat, 35.0, KUIPER_GSO_SEPARATION_FINAL_DEG
        )
        starlink_fraction[lat] = starlink
        rows.append([f"{lat:.0f}", f"{100 * starlink:.1f}%", f"{100 * kuiper:.1f}%"])

    table = format_table(
        ["GT latitude", "Starlink usable sky (e>=40, sep 22)", "Kuiper usable sky (e>=35, sep 18)"],
        rows,
        title="Fig 9: usable sky fraction under GSO arc avoidance",
    )
    headline = {
        "usable sky at the Equator (Starlink, %) [paper: two small lobes]": round(
            100 * starlink_fraction[0.0], 1
        ),
        "usable sky at 50 deg latitude (Starlink, %)": round(
            100 * starlink_fraction[50.0], 1
        ),
        "equatorial restriction factor (50deg/0deg)": round(
            starlink_fraction[50.0] / max(starlink_fraction[0.0], 1e-9), 2
        ),
    }
    return ExperimentResult(
        experiment_id="fig9",
        title="GSO arc-avoidance field-of-view reduction",
        scale_name=scale.name,
        tables=[table, format_summary("Fig 9 headline", headline)],
        data={"starlink_fraction_by_lat": starlink_fraction},
        headline=headline,
    )
