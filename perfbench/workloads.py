"""The benchmark's workloads: sizes, snapshot grid, and why each exists.

Every workload runs BP + hybrid on the Starlink preset, serially, with
both modes of a snapshot sharing one geometry frame. The snapshot grid
spreads its instants evenly over the day. It has more instants than the
engine's eight-frame cache, so repeating the grid never turns the first
mode's frame request into a cache hit, and the per-evaluation counts of
one grid pass repeat exactly from run to run.

Sizes are chosen so one pass takes 5.5-8.5 s on a 2-vCPU Xeon, about
the length of one of the three passes a 20 s run makes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

SECONDS_PER_DAY = 86_400.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``kind`` is ``"rtt"`` (one ``compute_rtt_series_multi`` sweep per
    grid pass, fresh checkpoint root each time) or ``"tput"`` (one
    ``throughput_matrix`` call per grid instant).
    """

    name: str
    kind: str
    num_cities: int
    num_pairs: int
    relay_spacing_deg: float
    #: Layer whose share of traced sweep time the workload is built to
    #: be dominated by (``trace.intended_share`` in ``layers.py``).
    stresses: str
    why: str
    num_snapshots: int = 12

    @property
    def snapshot_interval_s(self) -> float:
        return SECONDS_PER_DAY / self.num_snapshots

    def times_s(self) -> list[float]:
        return [i * self.snapshot_interval_s for i in range(self.num_snapshots)]

    def params(self) -> dict:
        """Provenance form: every parameter that shapes the inputs."""
        record = asdict(self)
        record.pop("why")
        record["constellation"] = "starlink"
        record["modes"] = ["bp", "hybrid"]
        record["aircraft"] = True
        record["snapshot_interval_s"] = self.snapshot_interval_s
        return record


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rtt-day",
            kind="rtt",
            num_cities=300,
            num_pairs=50,
            relay_spacing_deg=1.0,
            stresses="pipeline",
            why=(
                "Fig. 2 RTT day sweep on a mid-size graph where source-"
                "batched Dijkstra does most of the work"
            ),
        ),
        Workload(
            name="tput-k4",
            kind="tput",
            num_cities=300,
            num_pairs=40,
            relay_spacing_deg=2.0,
            stresses="routing.pair",
            why=(
                "Fig. 4 max-min throughput at k in {1, 4}, dominated by the "
                "per-pair edge-disjoint routing rounds 2..k"
            ),
        ),
        Workload(
            name="ground-churn",
            kind="rtt",
            num_cities=1000,
            num_pairs=4,
            relay_spacing_deg=0.5,
            num_snapshots=14,
            stresses="engine",
            why=(
                "the paper's full ground segment with 4 pairs: per-frame "
                "graph building outweighs Dijkstra, and set-up and memory are large"
            ),
        ),
    )
}
