"""Experiments: one module per paper figure/table.

Importing this package populates the registry; use
:func:`repro.experiments.all_experiments` to enumerate and run them.
"""

from repro.experiments import (  # noqa: F401  (imports register experiments)
    ablations,
    disconnected,
    ext_deployment,
    ext_dynamics,
    ext_fault_tolerance,
    ext_fiber_network,
    ext_gso_impact,
    ext_maxflow_baseline,
    ext_modcod_weather,
    ext_te_routing,
    fig2_latency,
    fig3_path_variation,
    fig4_throughput,
    fig5_isl_capacity,
    fig6_attenuation,
    fig8_example_path,
    fig9_gso_arc,
    fig10_cross_shell,
    fig11_fiber_aug,
)
from repro.experiments.base import (
    ExperimentResult,
    all_experiments,
    get_experiment,
)

__all__ = [
    "ExperimentResult",
    "all_experiments",
    "get_experiment",
]
