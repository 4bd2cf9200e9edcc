"""The run context: every run-wide setting in one immutable value.

Experiments build their scenarios and sweeps internally, so ``repro run``
cannot hand each one its run-wide settings (``--profile``, ``--strict``,
``--inject-fault``, ``--resume DIR``, ``--fresh``, ``--jobs N``).
Instead the runner installs one :class:`RunContext` for the batch and
the layers that care read it with :func:`current`:

* ``registry`` — the :class:`repro.obs.MetricsRegistry` collecting spans
  and counters, or ``None`` when collection is off (see
  :func:`repro.obs.observe`);
* ``strict`` — whether result invariant guards run
  (:mod:`repro.integrity.guards`);
* ``faults`` — the :class:`repro.faults.FaultSpec` applied to every
  graph ``Scenario.graph_at`` builds, the only way a fault reaches a
  graph;
* ``checkpoint_root`` and ``fresh`` — where RTT sweeps checkpoint, and
  whether a mismatched checkpoint directory is restarted instead of
  raising (:func:`repro.core.checkpoint.checkpoint_root`);
* ``jobs`` — how many worker processes a snapshot sweep
  (:func:`repro.core.parallel.map_snapshot_rows`) may use; 1 evaluates
  in-process (``repro run --jobs N``).

:func:`run_context` changes fields for the duration of a block and
restores the previous context on exit. The pool initializer in
:mod:`repro.core.parallel` ships the whole context to every worker and
installs it there with :func:`install`, so fork- and spawn-started
workers compute under the same settings as the parent.

The context is one module global, not a ``contextvars.ContextVar``: a
thread started after ``ContextVar.set`` reads the default, and threads
recording into the registry of an enclosing :func:`repro.obs.observe`
must see it. This module imports nothing from the package, so every
layer can depend on it.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from repro.faults import FaultSpec
    from repro.obs.spans import MetricsRegistry

__all__ = ["RunContext", "current", "install", "run_context"]


@dataclass(frozen=True)
class RunContext:
    """The run-wide settings in force (see the module docstring)."""

    registry: "MetricsRegistry | None" = None
    strict: bool = False
    faults: "FaultSpec | None" = None
    checkpoint_root: Path | None = None
    fresh: bool = False
    jobs: int = 1


_CURRENT = RunContext()


def current() -> RunContext:
    """The run context in force."""
    return _CURRENT


def install(context: RunContext) -> RunContext:
    """Make ``context`` current; returns the previous one.

    Prefer :func:`run_context`. This exists for worker-process
    initializers, which cannot hold a ``with`` block open across tasks.
    """
    global _CURRENT
    previous = _CURRENT
    _CURRENT = context
    return previous


@contextmanager
def run_context(**changes) -> Iterator[RunContext]:
    """Change fields of the current context inside the block.

    The previous context is restored on exit, also when the block raises.
    """
    previous = install(dataclasses.replace(_CURRENT, **changes))
    try:
        yield _CURRENT
    finally:
        install(previous)
