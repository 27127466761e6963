"""Tests for the SLA cost (Eq. 2) and the Fortz-Thorup cost."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SlaParams
from repro.core.fortz import (
    FORTZ_BREAKPOINTS,
    fortz_cost,
    fortz_link_cost,
    uncongested_bound,
)
from repro.core.sla import MS_PER_S, pair_sla_cost, sla_outcome


class TestPairSlaCost:
    def test_zero_below_bound(self):
        params = SlaParams(theta=0.025)
        assert pair_sla_cost(0.024, params) == 0.0
        assert pair_sla_cost(0.025, params) == 0.0

    def test_jump_at_bound(self):
        params = SlaParams(theta=0.025, b1=100.0, b2=1.0)
        cost = pair_sla_cost(0.026, params)
        assert cost == pytest.approx(100.0 + 1.0)  # B1 + 1 ms excess

    def test_linear_in_excess(self):
        params = SlaParams(theta=0.025, b1=100.0, b2=1.0)
        c1 = pair_sla_cost(0.030, params)
        c2 = pair_sla_cost(0.035, params)
        assert c2 - c1 == pytest.approx(5.0)  # 5 ms more excess

    def test_disconnection_penalty(self):
        params = SlaParams(theta=0.025, disconnect_excess_factor=10.0)
        cost = pair_sla_cost(float("inf"), params)
        expected = 100.0 + 1.0 * (10.0 * 0.025 * MS_PER_S)
        assert cost == pytest.approx(expected)


class TestSlaOutcome:
    def test_counts_only_demand_pairs(self):
        delays = np.full((3, 3), 0.030)
        np.fill_diagonal(delays, np.nan)
        demand = np.zeros((3, 3))
        demand[0, 1] = 1.0
        outcome = sla_outcome(delays, demand, SlaParams())
        assert outcome.pairs == 1
        assert outcome.violations == 1
        assert outcome.cost == pytest.approx(100.0 + 5.0)

    def test_no_violations_zero_cost(self):
        delays = np.full((3, 3), 0.010)
        demand = np.ones((3, 3))
        np.fill_diagonal(demand, 0.0)
        outcome = sla_outcome(delays, demand, SlaParams())
        assert outcome.cost == 0.0
        assert outcome.violations == 0
        assert outcome.violation_fraction == 0.0

    def test_disconnected_counted(self):
        delays = np.full((3, 3), 0.010)
        delays[0, 1] = np.inf
        demand = np.ones((3, 3))
        np.fill_diagonal(demand, 0.0)
        outcome = sla_outcome(delays, demand, SlaParams())
        assert outcome.disconnected == 1
        assert outcome.violations == 1

    def test_nan_with_demand_rejected(self):
        delays = np.full((3, 3), np.nan)
        demand = np.ones((3, 3))
        np.fill_diagonal(demand, 0.0)
        with pytest.raises(ValueError, match="no routed delay"):
            sla_outcome(delays, demand, SlaParams())

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes"):
            sla_outcome(np.zeros((2, 2)), np.zeros((3, 3)))

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.0, 0.2), st.floats(0.0, 0.2))
    def test_monotone_in_delay(self, d1, d2):
        lo, hi = sorted((d1, d2))
        params = SlaParams()
        assert pair_sla_cost(hi, params) >= pair_sla_cost(lo, params)


class TestFortzCost:
    def test_slope_one_at_low_load(self):
        cost = fortz_link_cost(np.asarray([0.1]))
        assert cost[0] == pytest.approx(0.1)

    def test_breakpoint_continuity(self):
        eps = 1e-9
        for bp in FORTZ_BREAKPOINTS[1:]:
            below = fortz_link_cost(np.asarray([bp - eps]))[0]
            above = fortz_link_cost(np.asarray([bp + eps]))[0]
            assert above == pytest.approx(below, rel=1e-5)

    def test_escalating_slopes(self):
        # cost derivative grows across segments
        rhos = np.asarray([0.2, 0.5, 0.8, 0.95, 1.05, 1.2])
        eps = 1e-6
        slopes = (
            fortz_link_cost(rhos + eps) - fortz_link_cost(rhos)
        ) / eps
        assert np.all(np.diff(slopes) > 0)

    def test_expensive_above_capacity(self):
        assert fortz_link_cost(np.asarray([1.2]))[0] > 500.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            fortz_link_cost(np.asarray([-0.1]))

    def test_include_mask(self):
        loads = np.asarray([1e8, 2e8])
        cap = np.full(2, 5e8)
        full = fortz_cost(loads, cap)
        only_first = fortz_cost(loads, cap, include=np.asarray([True, False]))
        assert only_first < full
        assert only_first == pytest.approx(
            fortz_link_cost(np.asarray([0.2]))[0]
        )

    def test_uncongested_bound_below_cost(self):
        loads = np.asarray([4e8, 4.9e8])
        cap = np.full(2, 5e8)
        assert uncongested_bound(loads, cap) <= fortz_cost(loads, cap)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, 2.0), st.floats(0.0, 0.5))
    def test_monotone_convex(self, rho, step):
        f = fortz_link_cost
        a = f(np.asarray([rho]))[0]
        b = f(np.asarray([rho + step]))[0]
        c = f(np.asarray([rho + 2 * step]))[0]
        assert b >= a
        # convexity: increments grow
        assert (c - b) >= (b - a) - 1e-9


class TestStackedCosts:
    """A ``(K, ...)`` stack prices each row exactly as a one-row call."""

    def test_sla_rows_equal_one_row_calls(self):
        params = SlaParams()
        rng = np.random.default_rng(4)
        n = 9
        delays = rng.uniform(0.0, 2.5 * params.theta, (7, n, n))
        delays[3] = 0.5 * params.theta  # no pair over the bound
        delays[:, 2, :] = np.inf  # node 2 cut off: disconnected pairs
        delays[1, 4, 5] = params.theta  # a tie with the bound
        for row in delays:
            np.fill_diagonal(row, np.nan)
        demand = rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.8)
        np.fill_diagonal(demand, 0.0)
        stacked = sla_outcome(delays, demand, params)
        assert len(stacked) == len(delays)
        for row, outcome in zip(delays, stacked):
            assert outcome == sla_outcome(row, demand, params)
        assert stacked[3].violations == stacked[3].disconnected > 0
        assert all(outcome.disconnected > 0 for outcome in stacked)

    def test_sla_theta_tie_of_the_oracle_instance(self):
        """A pair whose delay sums to exactly theta (the synthetic
        topologies scale their diameter to theta) gets the one-row
        verdict inside a stack."""
        from repro.config import OptimizerConfig
        from repro.core.evaluation import DtrEvaluator
        from repro.core.weights import WeightSetting
        from repro.exp.common import make_instance
        from repro.scenarios import legacy_failures

        inst = make_instance("rand", 10, 3.5, 6)
        config = OptimizerConfig()
        setting = WeightSetting.random(
            inst.network.num_arcs, config.weights, np.random.default_rng(6)
        )
        evaluator = DtrEvaluator(inst.network, inst.traffic, config)
        failures = [s.failure for s in legacy_failures(inst.network)]
        tie = next(f for f in failures if f.label == "link:12")
        rows = [
            evaluator.evaluate(setting, f).pair_delays
            for f in (tie, failures[0], failures[1])
        ]
        assert rows[0][0, 6] == config.sla.theta
        demand = inst.traffic.delay.values
        stacked = sla_outcome(np.stack(rows), demand, config.sla)
        for row, outcome in zip(rows, stacked):
            assert outcome == sla_outcome(row, demand, config.sla)

    def test_sla_stack_shape_checked(self):
        with pytest.raises(ValueError, match="shapes"):
            sla_outcome(np.zeros((2, 3, 3)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="shapes"):
            sla_outcome(np.zeros((1, 2, 3, 3)), np.zeros((3, 3)))

    def test_fortz_rows_equal_one_row_calls(self):
        rng = np.random.default_rng(5)
        # Utilisations on and around every breakpoint, and beyond 1.1.
        rho = np.concatenate(
            [
                np.asarray(FORTZ_BREAKPOINTS),
                np.asarray(FORTZ_BREAKPOINTS) + 1e-3,
                rng.uniform(0.0, 1.6, 40),
            ]
        )
        capacity = rng.uniform(1e8, 1e9, rho.size)
        loads = np.stack(
            [capacity * rng.permutation(rho) for _ in range(6)]
        )
        include = rng.random(loads.shape) < 0.7
        include[2] = False  # no throughput-carrying arc: Phi = 0
        with_mask = fortz_cost(loads, capacity, include=include)
        without = fortz_cost(loads, capacity)
        assert len(with_mask) == len(without) == len(loads)
        for k, row in enumerate(loads):
            assert with_mask[k] == fortz_cost(
                row, capacity, include=include[k]
            )
            assert without[k] == fortz_cost(row, capacity)
        assert with_mask[2] == 0.0

    def test_fortz_stack_shapes_checked(self):
        loads, capacity = np.ones((3, 4)), np.ones(4)
        with pytest.raises(ValueError, match="include"):
            fortz_cost(loads, capacity, include=np.ones(4, dtype=bool))
        with pytest.raises(ValueError, match="capacity"):
            fortz_cost(np.ones((2, 3, 4)), capacity)
