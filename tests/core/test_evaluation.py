"""Tests for the DTR evaluator (cost oracle)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.weights import WeightSetting
from repro.scenarios import legacy_failures, node_failures


class TestEvaluateNormal:
    def test_components_consistent(self, small_evaluator, random_setting):
        outcome = small_evaluator.evaluate_normal(random_setting)
        assert outcome.cost.lam == pytest.approx(outcome.sla.cost)
        assert outcome.cost.phi >= 0
        assert outcome.scenario.is_normal
        np.testing.assert_allclose(
            outcome.total_loads, outcome.loads_delay + outcome.loads_tput
        )

    def test_all_pairs_have_delays(self, small_evaluator, random_setting):
        outcome = small_evaluator.evaluate_normal(random_setting)
        n = small_evaluator.network.num_nodes
        off_diag = ~np.eye(n, dtype=bool)
        # every pair carries delay demand in the gravity model
        assert np.all(np.isfinite(outcome.pair_delays[off_diag]))

    def test_utilization_positive(self, small_evaluator, random_setting):
        outcome = small_evaluator.evaluate_normal(random_setting)
        assert outcome.utilization.max() > 0

    def test_evaluation_counter(self, small_evaluator, random_setting):
        before = small_evaluator.num_evaluations
        small_evaluator.evaluate_normal(random_setting)
        assert small_evaluator.num_evaluations == before + 1

    def test_wrong_size_setting_rejected(self, small_evaluator):
        with pytest.raises(ValueError, match="match"):
            small_evaluator.evaluate_normal(WeightSetting.uniform(3))

    def test_deterministic(self, small_evaluator, random_setting):
        a = small_evaluator.evaluate_normal(random_setting)
        b = small_evaluator.evaluate_normal(random_setting)
        assert a.cost == b.cost


class TestEvaluateFailures:
    def test_failure_costs_not_below_floor(
        self, small_evaluator, random_setting
    ):
        failures = legacy_failures(small_evaluator.network)
        evaluation = small_evaluator.evaluate_scenarios(
            random_setting, failures
        )
        assert len(evaluation) == len(failures)
        assert evaluation.total_cost.lam >= 0

    def test_violations_vector(self, small_evaluator, random_setting):
        failures = legacy_failures(small_evaluator.network)
        evaluation = small_evaluator.evaluate_scenarios(
            random_setting, failures
        )
        assert evaluation.violations.shape == (len(failures),)
        assert evaluation.mean_violations() == pytest.approx(
            evaluation.violations.mean()
        )

    def test_top_fraction(self, small_evaluator, random_setting):
        failures = legacy_failures(small_evaluator.network)
        evaluation = small_evaluator.evaluate_scenarios(
            random_setting, failures
        )
        top = evaluation.top_fraction_mean_violations(0.1)
        assert top >= evaluation.mean_violations()
        with pytest.raises(ValueError):
            evaluation.top_fraction_mean_violations(0.0)

    def test_node_failure_drops_pairs(self, small_evaluator, random_setting):
        failures = node_failures(small_evaluator.network, nodes=[0])
        outcome = small_evaluator.evaluate(random_setting, failures[0])
        n = small_evaluator.network.num_nodes
        # pairs involving node 0 are out of the SLA population
        assert outcome.sla.pairs == (n - 1) * (n - 2)


@pytest.mark.slow  # property-based sweep over every single-link failure
class TestReuseShortcut:
    # the evaluator fixture is stateless apart from a call counter, so
    # sharing it across generated examples is safe
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(0, 10_000))
    def test_shortcut_matches_direct(self, small_evaluator, seed):
        setting = WeightSetting.random(
            small_evaluator.network.num_arcs,
            small_evaluator.config.weights,
            np.random.default_rng(seed),
        )
        normal = small_evaluator.evaluate_normal(setting)
        for scenario in legacy_failures(small_evaluator.network):
            direct = small_evaluator.evaluate(setting, scenario)
            shortcut = small_evaluator.evaluate(
                setting, scenario, reuse=normal
            )
            assert direct.cost.lam == pytest.approx(
                shortcut.cost.lam, abs=1e-9
            )
            assert direct.cost.phi == pytest.approx(
                shortcut.cost.phi, rel=1e-12
            )
            assert direct.sla.violations == shortcut.sla.violations

    def test_reuse_ignored_for_node_failures(
        self, small_evaluator, random_setting
    ):
        normal = small_evaluator.evaluate_normal(random_setting)
        scenario = node_failures(
            small_evaluator.network, nodes=[1]
        )[0]
        direct = small_evaluator.evaluate(random_setting, scenario)
        with_reuse = small_evaluator.evaluate(
            random_setting, scenario, reuse=normal
        )
        assert direct.cost == with_reuse.cost


class TestWithTraffic:
    def test_sibling_evaluator(self, small_evaluator, random_setting):
        doubled = small_evaluator.traffic.scaled(2.0)
        sibling = small_evaluator.with_traffic(doubled)
        base = small_evaluator.evaluate_normal(random_setting)
        heavy = sibling.evaluate_normal(random_setting)
        # doubled traffic, same routing: exactly doubled loads
        np.testing.assert_allclose(
            heavy.total_loads, 2.0 * base.total_loads, rtol=1e-9
        )
        assert heavy.cost.phi >= base.cost.phi
