"""Network substrate: snapshot graphs, topology, links, path algorithms."""

from repro.network.dynamics import (
    churn_between,
    empirical_pass_durations_s,
    gt_handover_stats,
    max_pass_duration_s,
    path_jaccard,
)
from repro.network.fiber import city_fiber_edges, fiber_equivalent_distance_m
from repro.network.graph import (
    ConnectivityMode,
    GsoProtectionPolicy,
    SnapshotGraph,
    isl_grazing_altitude_m,
)
from repro.network.linkbudget import (
    DEFAULT_DOWNLINK_BUDGET,
    LinkBudget,
    free_space_path_loss_db,
)
from repro.network.modcod import spectral_efficiency, weather_capacity_factor
from repro.network.links import LinkCapacities, propagation_delay_s, rtt_ms
from repro.network.paths import (
    Path,
    extract_path,
    k_edge_disjoint_paths,
    k_node_disjoint_paths,
    shortest_path,
)
from repro.network.snapshots import snapshot_times
from repro.network.topology import (
    constellation_isl_edges,
    isl_lengths_m,
    plus_grid_edges,
)

__all__ = [
    "ConnectivityMode",
    "GsoProtectionPolicy",
    "max_pass_duration_s",
    "empirical_pass_durations_s",
    "path_jaccard",
    "churn_between",
    "gt_handover_stats",
    "city_fiber_edges",
    "fiber_equivalent_distance_m",
    "spectral_efficiency",
    "weather_capacity_factor",
    "LinkBudget",
    "DEFAULT_DOWNLINK_BUDGET",
    "free_space_path_loss_db",
    "k_node_disjoint_paths",
    "SnapshotGraph",
    "isl_grazing_altitude_m",
    "LinkCapacities",
    "propagation_delay_s",
    "rtt_ms",
    "Path",
    "shortest_path",
    "extract_path",
    "k_edge_disjoint_paths",
    "snapshot_times",
    "plus_grid_edges",
    "constellation_isl_edges",
    "isl_lengths_m",
]
