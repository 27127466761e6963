"""Integration tests for Phase 1, Phase 2 and the full optimizer.

These run the real search loops with the tiny schedule from the
``tiny_config`` fixture — minutes of compute for the whole module.
"""

import numpy as np
import pytest

from repro.core.evaluation import DtrEvaluator
from repro.core.lexicographic import CostPair

pytestmark = pytest.mark.slow  # real search loops over failure sweeps
from repro.core.optimizer import RobustDtrOptimizer
from repro.core.phase1 import run_phase1
from repro.core.phase2 import (
    RobustConstraints,
    bounded_failure_cost,
    run_phase2,
)
from repro.core.weights import WeightSetting
from repro.routing.failures import FailureModel
from repro.scenarios import legacy_failures


@pytest.fixture(scope="module")
def phase1_result():
    """One shared Phase 1 run on the small instance."""
    # rebuilt here because module-scoped fixtures cannot use the
    # function-scoped ones from conftest
    from repro.config import (
        OptimizerConfig,
        SamplingParams,
        SearchParams,
        WeightParams,
    )
    from repro.topology import rand_topology, scale_to_diameter
    from repro.traffic import dtr_traffic, scale_to_utilization

    gen = np.random.default_rng(7)
    network = scale_to_diameter(rand_topology(10, 4.0, gen), 0.025)
    traffic = scale_to_utilization(
        network, dtr_traffic(10, gen, 1.0), 0.4, "mean"
    )
    config = OptimizerConfig(
        weights=WeightParams(w_min=1, w_max=12, q=0.7),
        search=SearchParams(
            phase1_diversification_interval=3,
            phase1_diversifications=1,
            phase2_diversification_interval=2,
            phase2_diversifications=1,
            improvement_cutoff=0.01,
            arcs_per_iteration_fraction=0.5,
            round_iteration_cap_factor=3,
            max_iterations=30,
        ),
        sampling=SamplingParams(
            tau=1, min_samples_per_link=3, max_extra_samples=400
        ),
        critical_fraction=0.2,
        keep_acceptable_settings=5,
    )
    evaluator = DtrEvaluator(network, traffic, config)
    result = run_phase1(evaluator, np.random.default_rng(99))
    return evaluator, result


class TestPhase1:
    def test_best_beats_random(self, phase1_result):
        evaluator, result = phase1_result
        random_cost = evaluator.evaluate_normal(
            WeightSetting.random(
                evaluator.network.num_arcs,
                evaluator.config.weights,
                np.random.default_rng(12),
            )
        ).cost
        assert result.best_cost <= random_cost

    def test_pool_settings_satisfy_constraints(self, phase1_result):
        evaluator, result = phase1_result
        chi = evaluator.config.sampling.chi
        for recorded in result.pool:
            cost = evaluator.evaluate_normal(recorded.setting).cost
            assert cost.lam == pytest.approx(result.best_cost.lam, abs=1e-6)
            assert cost.phi <= (1 + chi) * result.best_cost.phi + 1e-9

    def test_pool_contains_best(self, phase1_result):
        evaluator, result = phase1_result
        keys = {r.setting.key() for r in result.pool}
        assert result.best_setting.key() in keys

    def test_samples_collected_for_all_arcs(self, phase1_result):
        _, result = phase1_result
        minimum = 3  # tiny_config.sampling.min_samples_per_link
        assert result.store.counts().min() >= min(
            minimum, result.store.counts().max()
        )

    def test_critical_set_size(self, phase1_result):
        evaluator, result = phase1_result
        target = max(
            1,
            round(
                evaluator.config.critical_fraction
                * evaluator.network.num_arcs
            ),
        )
        assert 1 <= len(result.critical_arcs) <= target

    def test_estimates_cover_all_arcs(self, phase1_result):
        evaluator, result = phase1_result
        assert result.estimate.num_arcs == evaluator.network.num_arcs


class TestPhase2:
    def test_robust_improves_kfail(self, phase1_result):
        evaluator, phase1 = phase1_result
        failures = legacy_failures(
            evaluator.network
        ).restricted_to_arcs(phase1.critical_arcs)
        constraints = RobustConstraints(
            lam_star=phase1.best_cost.lam,
            phi_star=phase1.best_cost.phi,
            chi=evaluator.config.sampling.chi,
        )
        result = run_phase2(
            evaluator,
            failures,
            phase1.pool,
            constraints,
            np.random.default_rng(5),
        )
        # the robust setting must satisfy the constraints ...
        assert constraints.satisfied_by(result.normal_cost)
        # ... and do no worse than the regular setting on K_fail
        regular_kfail = evaluator.evaluate_scenarios(
            phase1.best_setting, failures
        ).total_cost
        assert result.best_kfail <= regular_kfail

    def test_requires_starts_and_failures(self, phase1_result):
        evaluator, phase1 = phase1_result
        failures = legacy_failures(evaluator.network)
        constraints = RobustConstraints(0.0, 1.0, 0.2)
        with pytest.raises(ValueError, match="starting"):
            run_phase2(
                evaluator, failures, (), constraints, np.random.default_rng(0)
            )


class TestBoundedFailureCost:
    def test_unbounded_matches_full(self, phase1_result):
        evaluator, phase1 = phase1_result
        failures = legacy_failures(evaluator.network)
        full = evaluator.evaluate_scenarios(
            phase1.best_setting, failures
        ).total_cost
        bounded = bounded_failure_cost(
            evaluator, phase1.best_setting, failures, None
        )
        assert bounded is not None
        assert bounded.lam == pytest.approx(full.lam)
        assert bounded.phi == pytest.approx(full.phi, rel=1e-12)

    def test_prunes_against_tight_bound(self, phase1_result):
        evaluator, phase1 = phase1_result
        failures = legacy_failures(evaluator.network)
        pruned = bounded_failure_cost(
            evaluator,
            phase1.best_setting,
            failures,
            CostPair(-1.0, -1.0),
        )
        assert pruned is None

    def test_never_prunes_with_loose_bound(self, phase1_result):
        evaluator, phase1 = phase1_result
        failures = legacy_failures(evaluator.network)
        loose = CostPair(1e18, 1e18)
        result = bounded_failure_cost(
            evaluator, phase1.best_setting, failures, loose
        )
        assert result is not None


class TestRobustConstraints:
    def test_satisfaction(self):
        constraints = RobustConstraints(lam_star=0.0, phi_star=100.0, chi=0.2)
        assert constraints.satisfied_by(CostPair(0.0, 120.0))
        assert not constraints.satisfied_by(CostPair(0.0, 121.0))
        assert not constraints.satisfied_by(CostPair(1.0, 100.0))


class TestOptimizerFacade:
    def test_end_to_end(self, small_instance, tiny_config):
        network, traffic = small_instance
        optimizer = RobustDtrOptimizer(
            network,
            traffic,
            tiny_config,
            failure_model=FailureModel.LINK,
            rng=np.random.default_rng(3),
        )
        result = optimizer.run()
        assert result.regular_setting.num_arcs == network.num_arcs
        assert result.robust_setting.num_arcs == network.num_arcs
        assert len(result.critical_failures) >= 1
        assert len(result.all_failures) == network.num_links
        assert 0 < result.critical_fraction_used <= 1
        assert result.phase1_seconds > 0
        assert result.phase2_seconds > 0

    def test_full_search_uses_all_failures(
        self, small_instance, tiny_config
    ):
        network, traffic = small_instance
        optimizer = RobustDtrOptimizer(
            network, traffic, tiny_config, rng=np.random.default_rng(4)
        )
        result = optimizer.run(full_search=True)
        assert len(result.critical_failures) == len(result.all_failures)
