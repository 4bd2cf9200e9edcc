"""Experiment infrastructure: results and the registry.

Every paper figure/table has a module here exposing ``run(scale)``, whose
one argument defaults to the experiment's own scale, returning an
:class:`ExperimentResult`. The registry lets the batch runner
(:mod:`repro.core.runner`, behind ``repro run``) and the tests enumerate
them; ``repro run --scale`` is the one way to pick the scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.scenario import ScenarioScale

__all__ = [
    "ExperimentResult",
    "register",
    "get_experiment",
    "all_experiments",
]

#: Default scale of the throughput extensions (ext-fiber, ext-maxflow,
#: ext-modcod, ext-terouting): one snapshot with enough pairs for links
#: to contend.
EXTENSION_SCALE = ScenarioScale(
    name="extension-bench",
    num_cities=200,
    num_pairs=800,
    relay_spacing_deg=2.0,
    num_snapshots=1,
)


@dataclass
class ExperimentResult:
    """Outcome of one experiment run.

    ``tables`` are ready-to-print ASCII blocks mirroring the paper's
    figure; ``data`` holds the raw numbers for programmatic checks;
    ``headline`` collects the quantities the paper quotes in prose.
    """

    experiment_id: str
    title: str
    scale_name: str
    tables: list[str] = field(default_factory=list)
    data: dict = field(default_factory=dict)
    headline: dict = field(default_factory=dict)

    def brief(self) -> str:
        """One-line description for batch summaries and logs."""
        return f"{self.experiment_id}: {self.title} (scale={self.scale_name})"

    def render(self) -> str:
        """Human-readable text block: tables followed by headline numbers."""
        lines = [f"=== {self.experiment_id}: {self.title} (scale={self.scale_name}) ==="]
        for table in self.tables:
            lines.append(table)
            lines.append("")
        if self.headline:
            lines.append("Headline numbers:")
            for key, value in self.headline.items():
                lines.append(f"  {key}: {value}")
        return "\n".join(lines)


_REGISTRY: dict[str, Callable[..., ExperimentResult]] = {}


def register(experiment_id: str):
    """Decorator registering an experiment ``run`` function by id."""

    def decorator(func: Callable[..., ExperimentResult]):
        if experiment_id in _REGISTRY:
            raise ValueError(f"duplicate experiment id {experiment_id!r}")
        _REGISTRY[experiment_id] = func
        return func

    return decorator


def get_experiment(experiment_id: str) -> Callable[..., ExperimentResult]:
    """Look up a registered experiment by id (KeyError lists known ids)."""
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}") from None


def all_experiments() -> dict[str, Callable[..., ExperimentResult]]:
    """Copy of the registry (import side effects fill it; see __init__)."""
    return dict(_REGISTRY)

