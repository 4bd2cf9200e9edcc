"""Deterministic fault injection: seeded removal of network components.

The paper's Section 5 counts satellites that are *naturally* useless
(disconnected over oceans); this module asks the complementary
robustness question: how do BP-only and hybrid networks degrade when
components *fail* — satellites lost to debris or eclipse faults, ground
transceivers knocked out by weather or power cuts, aircraft relays
grounded?

A :class:`FaultSpec` names an outage fraction per component family plus
a seed; :func:`apply_faults` removes every edge incident to a failed
node from a built :class:`~repro.network.graph.SnapshotGraph`. Draws
are deterministic under a fixed seed (``numpy.random.default_rng``):
satellite and relay outages are persistent across snapshots (fixed
populations, identical draws), aircraft outages re-sample per snapshot
only because the airborne population itself changes.

The run context is the one way a spec reaches a graph:
``Scenario.graph_at`` applies ``current().faults``
(:mod:`repro.context`), so ``with run_context(faults=spec):`` faults
every graph built inside the block. This is how ``repro run
--inject-fault sat:0.05`` reaches every experiment in a sweep, and how
the ``faults`` experiment sweeps its outage fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.network.graph import SnapshotGraph

__all__ = [
    "FaultSpec",
    "apply_faults",
    "failed_node_mask",
    "parse_fault_spec",
]

#: Component keys accepted by :func:`parse_fault_spec`.
_FRACTION_KEYS = ("sat", "city", "relay", "aircraft")


@dataclass(frozen=True)
class FaultSpec:
    """Outage fractions per component family, plus the draw seed."""

    sat: float = 0.0
    city: float = 0.0
    relay: float = 0.0
    aircraft: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for key in _FRACTION_KEYS:
            value = getattr(self, key)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{key} outage fraction {value} not in [0, 1]")

    @property
    def is_noop(self) -> bool:
        """Whether this spec removes nothing."""
        return all(getattr(self, key) == 0.0 for key in _FRACTION_KEYS)

    def describe(self) -> str:
        """Canonical ``sat:0.05,relay:0.1,seed:7`` rendering (parse inverse)."""
        parts = [
            f"{key}:{getattr(self, key):g}"
            for key in _FRACTION_KEYS
            if getattr(self, key) > 0.0
        ]
        parts.append(f"seed:{self.seed}")
        return ",".join(parts)


def parse_fault_spec(text: str, seed: int = 0) -> FaultSpec:
    """Parse ``"sat:0.05,relay:0.1,seed:7"`` into a :class:`FaultSpec`.

    Entries are comma-separated ``component:fraction`` pairs; ``seed:N``
    sets the draw seed (default ``seed``). Unknown components raise a
    ``ValueError`` naming the valid keys.
    """
    kwargs: dict[str, float | int] = {"seed": seed}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition(":")
        key = key.strip().lower()
        if not sep:
            raise ValueError(
                f"malformed fault entry {part!r}: expected 'component:fraction'"
            )
        if key == "seed":
            kwargs["seed"] = int(value)
        elif key in _FRACTION_KEYS:
            kwargs[key] = float(value)
        else:
            valid = ", ".join((*_FRACTION_KEYS, "seed"))
            raise ValueError(f"unknown fault component {key!r}; valid: {valid}")
    return FaultSpec(**kwargs)  # type: ignore[arg-type]


def _draw_failed(rng: np.random.Generator, count: int, fraction: float) -> np.ndarray:
    """Deterministically pick ``round(fraction * count)`` failed indices."""
    failed = int(round(fraction * count))
    if failed <= 0 or count <= 0:
        return np.empty(0, dtype=np.intp)
    failed = min(failed, count)
    return np.sort(rng.choice(count, size=failed, replace=False))


def failed_node_mask(graph: SnapshotGraph, spec: FaultSpec) -> np.ndarray:
    """Boolean mask over graph node ids: ``True`` = failed by ``spec``.

    Draw order is fixed (satellites, cities, relays, aircraft) so the
    same seed fails the same satellites/relays at every snapshot and in
    every connectivity mode.
    """
    rng = np.random.default_rng(spec.seed)
    mask = np.zeros(graph.num_nodes, dtype=bool)
    stations = graph.stations
    offset = 0
    for count, fraction in (
        (graph.num_sats, spec.sat),
        (stations.city_count, spec.city),
        (stations.relay_count, spec.relay),
        (stations.aircraft_count, spec.aircraft),
    ):
        mask[offset + _draw_failed(rng, count, fraction)] = True
        offset += count
    return mask


def apply_faults(graph: SnapshotGraph, spec: FaultSpec | None) -> SnapshotGraph:
    """The snapshot graph with every edge touching a failed node removed.

    Nodes stay in place (ids are stable — pair indices, station tables
    and path extraction keep working); failed components simply become
    isolated, exactly like a transceiver that stops responding.
    """
    if spec is None or spec.is_noop:
        return graph
    mask = failed_node_mask(graph, spec)
    if not mask.any():
        return graph
    num_sats = graph.num_sats
    start, gts, dists = graph.sat_rows
    sats = np.repeat(np.arange(num_sats), np.diff(start))
    keep = ~(mask[sats] | mask[num_sats + gts])
    # Masks keep the satellite order, so the kept rows stay a CSR.
    start = np.searchsorted(sats[keep], np.arange(num_sats + 1))
    edges, other_dists, kinds = graph.isl_fiber_rows
    other = ~(mask[edges[:, 0]] | mask[edges[:, 1]])
    # replace() keeps the frame but starts with empty caches and no
    # handle on the frame's contraction memo, which holds fault-free rows.
    return replace(
        graph,
        sat_rows=(start, gts[keep], dists[keep]),
        isl_fiber_rows=(edges[other], other_dists[other], kinds[other]),
    )
