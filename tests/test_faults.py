"""Tests for deterministic fault injection."""

import numpy as np
import pytest

from repro.context import current, run_context
from repro.experiments.ext_fault_tolerance import outage_reachability
from repro.faults import (
    FaultSpec,
    apply_faults,
    failed_node_mask,
    parse_fault_spec,
)
from repro.network.graph import ConnectivityMode


class TestFaultSpec:
    def test_noop_by_default(self):
        assert FaultSpec().is_noop

    def test_fraction_bounds_validated(self):
        with pytest.raises(ValueError, match="sat"):
            FaultSpec(sat=1.5)
        with pytest.raises(ValueError, match="relay"):
            FaultSpec(relay=-0.1)

    def test_describe_roundtrips_through_parse(self):
        spec = FaultSpec(sat=0.05, relay=0.1, seed=7)
        assert parse_fault_spec(spec.describe()) == spec


class TestParseFaultSpec:
    def test_single_component(self):
        assert parse_fault_spec("sat:0.05") == FaultSpec(sat=0.05)

    def test_multiple_components_and_seed(self):
        spec = parse_fault_spec("sat:0.05, relay:0.1, seed:7")
        assert spec == FaultSpec(sat=0.05, relay=0.1, seed=7)

    def test_later_entry_overrides_earlier(self):
        # ``repro run`` joins repeated --inject-fault entries with commas.
        spec = parse_fault_spec("sat:0.2,relay:0.1,seed:3,sat:0.05,seed:4")
        assert spec == FaultSpec(sat=0.05, relay=0.1, seed=4)

    def test_unknown_component_named_in_error(self):
        with pytest.raises(ValueError, match="ground_station"):
            parse_fault_spec("ground_station:0.1")

    def test_malformed_entry(self):
        with pytest.raises(ValueError, match="component:fraction"):
            parse_fault_spec("sat")

    def test_out_of_range_fraction_rejected(self):
        with pytest.raises(ValueError, match="not in"):
            parse_fault_spec("sat:2.0")


class TestFailedNodeMask:
    def test_deterministic_under_fixed_seed(self, tiny_bp_graph):
        spec = FaultSpec(sat=0.25, relay=0.5, seed=11)
        first = failed_node_mask(tiny_bp_graph, spec)
        second = failed_node_mask(tiny_bp_graph, spec)
        np.testing.assert_array_equal(first, second)

    def test_different_seed_different_draw(self, tiny_bp_graph):
        base = failed_node_mask(tiny_bp_graph, FaultSpec(sat=0.25, seed=1))
        other = failed_node_mask(tiny_bp_graph, FaultSpec(sat=0.25, seed=2))
        assert not np.array_equal(base, other)

    def test_fails_requested_fraction_of_satellites(self, tiny_bp_graph):
        spec = FaultSpec(sat=0.25, seed=3)
        mask = failed_node_mask(tiny_bp_graph, spec)
        sats_failed = int(mask[: tiny_bp_graph.num_sats].sum())
        assert sats_failed == round(0.25 * tiny_bp_graph.num_sats)
        assert not mask[tiny_bp_graph.num_sats :].any()

    def test_component_families_respected(self, tiny_bp_graph):
        stations = tiny_bp_graph.stations
        mask = failed_node_mask(tiny_bp_graph, FaultSpec(relay=1.0, seed=3))
        gt_mask = mask[tiny_bp_graph.num_sats :]
        relay_slice = gt_mask[
            stations.city_count : stations.city_count + stations.relay_count
        ]
        assert relay_slice.all()
        assert not gt_mask[: stations.city_count].any()
        assert gt_mask.sum() == stations.relay_count


class TestApplyFaults:
    def test_noop_returns_same_graph(self, tiny_bp_graph):
        assert apply_faults(tiny_bp_graph, None) is tiny_bp_graph
        assert apply_faults(tiny_bp_graph, FaultSpec()) is tiny_bp_graph

    def test_removes_edges_of_failed_nodes(self, tiny_bp_graph):
        spec = FaultSpec(sat=0.5, seed=5)
        degraded = apply_faults(tiny_bp_graph, spec)
        mask = failed_node_mask(tiny_bp_graph, spec)
        assert degraded.num_edges < tiny_bp_graph.num_edges
        assert not mask[degraded.edges[:, 0]].any()
        assert not mask[degraded.edges[:, 1]].any()

    def test_node_ids_stay_stable(self, tiny_bp_graph):
        degraded = apply_faults(tiny_bp_graph, FaultSpec(sat=0.5, seed=5))
        assert degraded.num_nodes == tiny_bp_graph.num_nodes
        assert degraded.num_sats == tiny_bp_graph.num_sats
        assert degraded.gt_node(0) == tiny_bp_graph.gt_node(0)

    def test_matrix_cache_not_inherited(self, tiny_bp_graph):
        tiny_bp_graph.matrix()  # populate the source graph's cache
        degraded = apply_faults(tiny_bp_graph, FaultSpec(sat=0.5, seed=5))
        assert degraded.matrix().nnz < tiny_bp_graph.matrix().nnz


class TestScenarioIntegration:
    def test_fault_variant_degrades_graph(self, tiny_scenario):
        degraded = tiny_scenario.with_assembly(faults=FaultSpec(sat=0.5, seed=5))
        plain = tiny_scenario.graph_at(0.0, ConnectivityMode.BP_ONLY)
        faulty = degraded.graph_at(0.0, ConnectivityMode.BP_ONLY)
        assert faulty.num_edges < plain.num_edges

    def test_ambient_spec_applies_and_clears(self, tiny_scenario):
        plain = tiny_scenario.graph_at(0.0, ConnectivityMode.BP_ONLY)
        with run_context(faults=FaultSpec(sat=0.5, seed=5)):
            assert current().faults == FaultSpec(sat=0.5, seed=5)
            inside = tiny_scenario.graph_at(0.0, ConnectivityMode.BP_ONLY)
        after = tiny_scenario.graph_at(0.0, ConnectivityMode.BP_ONLY)
        assert current().faults is None
        assert inside.num_edges < plain.num_edges
        assert after.num_edges == plain.num_edges

    def test_explicit_faults_win_over_ambient(self, tiny_scenario):
        degraded = tiny_scenario.with_assembly(faults=FaultSpec(sat=0.5, seed=5))
        expected = degraded.graph_at(0.0, ConnectivityMode.BP_ONLY)
        with run_context(faults=FaultSpec(sat=0.9, seed=99)):
            inside = degraded.graph_at(0.0, ConnectivityMode.BP_ONLY)
        assert inside.num_edges == expected.num_edges


class TestDegradation:
    """BP-only connectivity collapses faster than hybrid under outages."""

    def test_deterministic_under_fixed_seed(self, tiny_scenario):
        first = outage_reachability(
            tiny_scenario, (0.9,), (ConnectivityMode.BP_ONLY,), seed=7, times_s=[0.0]
        )
        second = outage_reachability(
            tiny_scenario, (0.9,), (ConnectivityMode.BP_ONLY,), seed=7, times_s=[0.0]
        )
        assert first == second

    def test_bp_degrades_faster_than_hybrid(self, tiny_scenario):
        bp, hybrid = ConnectivityMode.BP_ONLY, ConnectivityMode.HYBRID
        outcomes = outage_reachability(
            tiny_scenario, (0.0, 0.9), (bp, hybrid), seed=7, times_s=[0.0]
        )
        reachable = {key: value["reachable"] for key, value in outcomes.items()}
        bp_drop = reachable[(0.0, bp)] - reachable[(0.9, bp)]
        hybrid_drop = reachable[(0.0, hybrid)] - reachable[(0.9, hybrid)]
        assert reachable[(0.9, bp)] < reachable[(0.9, hybrid)]
        assert bp_drop > hybrid_drop

    def test_experiment_runs_and_reports(self, tiny_scenario, monkeypatch):
        from repro.experiments import ext_fault_tolerance, get_experiment
        from tests.conftest import TINY_SCALE

        monkeypatch.setattr(ext_fault_tolerance, "FRACTIONS", (0.0, 0.9))
        result = get_experiment("faults")(TINY_SCALE)
        assert result.experiment_id == "faults"
        assert result.headline["BP degrades faster than hybrid"] is True
        np.testing.assert_array_equal(result.data["fractions"], [0.0, 0.9])
