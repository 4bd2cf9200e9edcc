"""Shared fixtures: tiny-but-complete scenarios for fast tests.

All mechanisms (aircraft, relays, ISLs, multipath, attenuation) stay
enabled; only sizes shrink. Session-scoped fixtures amortize the cost of
the land-mask raster and ground-segment construction.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.scenario import Scenario, ScenarioScale
from repro.network.graph import ConnectivityMode
from repro.orbits.constellation import Constellation, Shell
from repro.orbits.presets import starlink


def pytest_addoption(parser):
    """Add ``--update-golden``: regenerate the golden-value file.

    Run ``PYTHONPATH=src python -m pytest tests/test_golden_values.py
    --update-golden`` after an *intentional* numerics change, then
    commit the updated ``tests/data/golden.json`` alongside the change
    that caused it.
    """
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite tests/data/golden.json from the current code",
    )


@pytest.fixture(scope="session", autouse=True)
def _strict_integrity():
    """Run every test, and every fixture of any scope, with result
    invariant guards on.

    Session scope makes this the first fixture set up, so class-, module-
    and session-scoped fixtures (whole experiment runs among them) compute
    under the guards too. The guards are cheap and the suite is exactly
    where a violated invariant should surface first; tests exercising
    non-strict behaviour can turn them off locally with
    ``run_context(strict=False)``, which restores strict on exit.
    """
    from repro.context import run_context

    with run_context(strict=True):
        yield


def quarantine_reasons(directory) -> list[dict]:
    """The reason sidecars under ``directory``'s quarantine, oldest first."""
    from repro.integrity.quarantine import QUARANTINE_DIRNAME

    sidecars = sorted((Path(directory) / QUARANTINE_DIRNAME).glob("*.reason.json"))
    return [json.loads(sidecar.read_text()) for sidecar in sidecars]


def split_faults(config: dict):
    """``(with_assembly kwargs, fault spec)`` of a graph-variant config.

    A config's ``faults`` entry is not an assembly field: it is run as
    the run context's spec, ``with run_context(faults=spec):``.
    """
    assembly = {key: value for key, value in config.items() if key != "faults"}
    return assembly, config.get("faults")


def routed_node_paths(graph, pairs) -> list:
    """Each pair's routed shortest path as a node tuple, ``None`` if unrouted."""
    from repro.flows.routing import route_traffic

    return [p.nodes if p else None for p in route_traffic(graph, pairs).first_paths()]


TINY_SCALE = ScenarioScale(
    name="tiny",
    num_cities=40,
    num_pairs=25,
    relay_spacing_deg=4.0,
    num_snapshots=3,
    snapshot_interval_s=1800.0,
)


@pytest.fixture(scope="session")
def tiny_shell() -> Shell:
    """A 6x8 Walker shell: small enough to reason about by hand."""
    return Shell(
        name="tiny",
        num_planes=6,
        sats_per_plane=8,
        altitude_m=550_000.0,
        inclination_deg=53.0,
        min_elevation_deg=25.0,
    )


@pytest.fixture(scope="session")
def tiny_constellation(tiny_shell) -> Constellation:
    return Constellation(name="tiny", shells=(tiny_shell,))


@pytest.fixture(scope="session")
def tiny_scenario() -> Scenario:
    """Starlink-shell scenario at the tiny scale (shared, do not mutate)."""
    return Scenario.paper_default("starlink", TINY_SCALE)


@pytest.fixture(scope="session")
def tiny_bp_graph(tiny_scenario):
    return tiny_scenario.graph_at(0.0, ConnectivityMode.BP_ONLY)


@pytest.fixture(scope="session")
def tiny_hybrid_graph(tiny_scenario):
    return tiny_scenario.graph_at(0.0, ConnectivityMode.HYBRID)


@pytest.fixture(scope="session")
def starlink_constellation():
    return starlink()


@pytest.fixture()
def rng():
    return np.random.default_rng(7)
