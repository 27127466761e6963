"""Integration test: probabilistic robust optimization end to end."""

import numpy as np
import pytest

from repro.core.phase1 import run_phase1
from repro.core.phase2 import RobustConstraints
from repro.core.probabilistic import (
    WeightedFailureSet,
    expected_failure_cost,
    length_proportional_probabilities,
    probabilistic_robust_optimize,
    select_probabilistic_critical_links,
)
from repro.scenarios import legacy_failures

pytestmark = pytest.mark.slow  # full probabilistic search + failure sweep


@pytest.fixture(scope="module")
def probabilistic_run():
    from repro.config import (
        OptimizerConfig,
        SamplingParams,
        SearchParams,
        WeightParams,
    )
    from repro.core.evaluation import DtrEvaluator
    from repro.topology import rand_topology, scale_to_diameter
    from repro.traffic import dtr_traffic, scale_to_utilization

    gen = np.random.default_rng(23)
    network = scale_to_diameter(rand_topology(10, 4.0, gen), 0.025)
    traffic = scale_to_utilization(
        network, dtr_traffic(10, gen, 1.0), 0.4, "mean"
    )
    config = OptimizerConfig(
        weights=WeightParams(w_max=12),
        search=SearchParams(
            phase1_diversification_interval=3,
            phase1_diversifications=1,
            phase2_diversification_interval=2,
            phase2_diversifications=1,
            arcs_per_iteration_fraction=0.5,
            round_iteration_cap_factor=2,
            max_iterations=20,
        ),
        sampling=SamplingParams(
            tau=1, min_samples_per_link=2, max_extra_samples=200
        ),
    )
    evaluator = DtrEvaluator(network, traffic, config)
    phase1 = run_phase1(evaluator, np.random.default_rng(1))
    failures = legacy_failures(network)
    probs = length_proportional_probabilities(network, failures)
    weighted = WeightedFailureSet.from_failure_set(failures, probs)
    selection = select_probabilistic_critical_links(
        phase1.estimate, network, failures, probs, 6
    )
    critical = weighted.restricted_to_arcs(selection.critical_arcs)
    constraints = RobustConstraints(
        lam_star=phase1.best_cost.lam,
        phi_star=phase1.best_cost.phi,
        chi=config.sampling.chi,
    )
    result = probabilistic_robust_optimize(
        evaluator, critical, phase1.pool, constraints,
        np.random.default_rng(2),
    )
    return evaluator, phase1, critical, constraints, result


class TestProbabilisticOptimize:
    def test_constraints_hold(self, probabilistic_run):
        _, _, _, constraints, result = probabilistic_run
        assert constraints.satisfied_by(result.normal_cost)

    def test_beats_or_matches_regular(self, probabilistic_run):
        evaluator, phase1, critical, _, result = probabilistic_run
        regular = expected_failure_cost(
            evaluator, phase1.best_setting, critical
        )
        assert result.expected_kfail <= regular

    def test_reported_kfail_is_consistent(self, probabilistic_run):
        evaluator, _, critical, _, result = probabilistic_run
        recomputed = expected_failure_cost(
            evaluator, result.best_setting, critical
        )
        assert result.expected_kfail.lam == pytest.approx(
            recomputed.lam, abs=1e-9
        )
        assert result.expected_kfail.phi == pytest.approx(
            recomputed.phi, rel=1e-9
        )

    def test_requires_starts(self, probabilistic_run):
        evaluator, _, critical, constraints, _ = probabilistic_run
        with pytest.raises(ValueError, match="starting"):
            probabilistic_robust_optimize(
                evaluator, critical, (), constraints,
                np.random.default_rng(0),
            )
