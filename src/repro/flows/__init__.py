"""Flow substrate: traffic matrices, routing, rate allocation, baselines."""

from repro.flows.equalsplit import equal_split_allocation
from repro.flows.maxflow import lax_max_flow_bps
from repro.flows.maxmin import MaxMinResult, max_min_fair_allocation
from repro.flows.routing import RoutedTraffic, SubFlow, route_traffic
from repro.flows.terouting import route_load_aware
from repro.flows.throughput import ThroughputResult, evaluate_throughput
from repro.flows.traffic import (
    TRAFFIC_SEED,
    CityPair,
    eligible_pairs,
    sample_city_pairs,
)

__all__ = [
    "CityPair",
    "eligible_pairs",
    "sample_city_pairs",
    "TRAFFIC_SEED",
    "MaxMinResult",
    "max_min_fair_allocation",
    "equal_split_allocation",
    "lax_max_flow_bps",
    "SubFlow",
    "RoutedTraffic",
    "route_traffic",
    "route_load_aware",
    "ThroughputResult",
    "evaluate_throughput",
]
