"""Unit tests for max-min fair allocation (the floodns substitute)."""

import numpy as np
import pytest

from repro.flows.maxmin import max_min_fair_allocation


def allocate(flow_edges, capacities):
    return max_min_fair_allocation(
        [np.asarray(edges, dtype=np.int64) for edges in flow_edges],
        np.asarray(capacities, dtype=float),
    )


class TestBasics:
    def test_single_flow_gets_bottleneck_capacity(self):
        result = allocate([[0, 1]], [10.0, 4.0])
        assert result.rates[0] == pytest.approx(4.0)

    def test_two_flows_share_one_link_equally(self):
        result = allocate([[0], [0]], [10.0])
        np.testing.assert_allclose(result.rates, [5.0, 5.0])

    def test_empty_flow_list(self):
        result = allocate([], [10.0, 20.0])
        assert result.total_rate == 0.0
        assert np.all(result.link_loads == 0.0)

    def test_flow_without_links_rejected(self):
        with pytest.raises(ValueError):
            allocate([[]], [10.0])

    def test_bad_edge_id_rejected(self):
        with pytest.raises(ValueError):
            allocate([[5]], [10.0])


class TestTextbookScenarios:
    def test_classic_three_flow_line(self):
        """Line network: flows A (links 0,1), B (link 0), C (link 1).

        Capacities 10 each: progressive filling gives everyone 5 —
        freezing A and B at link 0's saturation leaves link 1 at load 5
        with C frozen too (C shares link 1 with A). Then C resumes? No:
        max-min on this instance is A=5, B=5, C=5.
        """
        result = allocate([[0, 1], [0], [1]], [10.0, 10.0])
        np.testing.assert_allclose(result.rates, [5.0, 5.0, 5.0])

    def test_asymmetric_line(self):
        """Same topology, link 1 has extra headroom: C should soak it up.

        Link 0 (cap 10) freezes A and B at 5. Link 1 (cap 20) then has
        only C active: C rises to 20 - 5 = 15.
        """
        result = allocate([[0, 1], [0], [1]], [10.0, 20.0])
        np.testing.assert_allclose(result.rates, [5.0, 5.0, 15.0])

    def test_parallel_links(self):
        result = allocate([[0], [1]], [10.0, 2.0])
        np.testing.assert_allclose(result.rates, [10.0, 2.0])

    def test_long_flow_through_many_links(self):
        result = allocate([[0, 1, 2, 3]], [4.0, 3.0, 2.0, 5.0])
        assert result.rates[0] == pytest.approx(2.0)

    def test_water_filling_three_levels(self):
        """Three flows on one link of 9 + private links of 1, 3, 100.

        Max-min: flow 0 stuck at 1 (its private link), flow 1 at 3,
        flow 2 takes the rest of the shared link: 9 - 1 - 3 = 5.
        """
        result = allocate([[0, 1], [0, 2], [0, 3]], [9.0, 1.0, 3.0, 100.0])
        np.testing.assert_allclose(result.rates, [1.0, 3.0, 5.0])


class TestInvariants:
    @pytest.fixture()
    def random_instance(self, rng):
        n_edges = 30
        capacities = rng.uniform(1.0, 100.0, n_edges)
        flows = [
            rng.choice(n_edges, size=rng.integers(1, 6), replace=False)
            for _ in range(40)
        ]
        return flows, capacities

    def test_feasibility(self, random_instance):
        flows, capacities = random_instance
        result = allocate(flows, capacities)
        loads = np.zeros(len(capacities))
        for flow, rate in zip(flows, result.rates):
            loads[np.asarray(flow)] += rate
        assert np.all(loads <= capacities * (1 + 1e-9))

    def test_reported_loads_match_recomputed(self, random_instance):
        flows, capacities = random_instance
        result = allocate(flows, capacities)
        loads = np.zeros(len(capacities))
        for flow, rate in zip(flows, result.rates):
            loads[np.asarray(flow)] += rate
        np.testing.assert_allclose(result.link_loads, loads, atol=1e-6)

    def test_every_flow_has_a_saturated_link(self, random_instance):
        """Pareto-optimality: each flow crosses a link with ~zero headroom."""
        flows, capacities = random_instance
        result = allocate(flows, capacities)
        residual = capacities - result.link_loads
        for flow in flows:
            assert residual[np.asarray(flow)].min() <= 1e-6 * capacities.max()

    def test_all_rates_positive(self, random_instance):
        flows, capacities = random_instance
        result = allocate(flows, capacities)
        assert np.all(result.rates > 0)

    def test_max_min_fairness_property(self, random_instance):
        """If flow i's rate < flow j's rate, i must cross a saturated link
        where it is among the smallest flows (increasing i would require
        decreasing a flow no bigger than it)."""
        flows, capacities = random_instance
        result = allocate(flows, capacities)
        residual = capacities - result.link_loads
        rates = result.rates
        for i, flow_i in enumerate(flows):
            saturated = [e for e in np.asarray(flow_i) if residual[e] <= 1e-6]
            assert saturated, f"flow {i} has no bottleneck"
            # On at least one saturated link, no co-flow is strictly
            # smaller (otherwise i was frozen too early).
            ok = False
            for edge in saturated:
                co_rates = [
                    rates[j]
                    for j, flow_j in enumerate(flows)
                    if edge in set(np.asarray(flow_j).tolist())
                ]
                if rates[i] >= max(co_rates) - 1e-6 * max(co_rates):
                    ok = True
                    break
            assert ok, f"flow {i} frozen below its fair share"

    def test_scale_invariance(self, random_instance):
        flows, capacities = random_instance
        base = allocate(flows, capacities)
        scaled = allocate(flows, capacities * 1000.0)
        np.testing.assert_allclose(scaled.rates, base.rates * 1000.0, rtol=1e-6)

    def test_adding_a_flow_cannot_raise_total_beyond_capacity(self, random_instance):
        # Note: adding a flow CAN raise an individual flow's rate (it may
        # freeze a competitor earlier), so per-flow monotonicity is not an
        # invariant. Feasibility of the grown instance is.
        flows, capacities = random_instance
        after = allocate(flows, capacities)
        assert np.all(after.link_loads <= capacities * (1 + 1e-9))

