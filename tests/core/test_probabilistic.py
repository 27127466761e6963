"""Tests for the probabilistic failure model extension."""

import numpy as np
import pytest

from repro.core.lexicographic import CostPair
from repro.core.probabilistic import (
    WeightedFailureSet,
    expected_failure_cost,
    length_proportional_probabilities,
    select_probabilistic_critical_links,
    uniform_probabilities,
    weighted_criticality,
)
from repro.core.criticality import CriticalityEstimate
from repro.scenarios import legacy_failures


class TestWeightedFailureSet:
    def test_normalization(self, square_network):
        failures = legacy_failures(square_network)
        wfs = WeightedFailureSet.from_failure_set(
            failures, np.asarray([1.0, 2.0, 3.0, 4.0, 10.0])
        )
        assert sum(wfs.probabilities) == pytest.approx(1.0)
        assert wfs.probabilities[-1] == pytest.approx(0.5)

    def test_length_mismatch(self, square_network):
        failures = legacy_failures(square_network)
        with pytest.raises(ValueError, match="one probability"):
            WeightedFailureSet.from_failure_set(failures, np.ones(2))

    def test_negative_probability_rejected(self, square_network):
        failures = legacy_failures(square_network)
        probs = np.ones(len(failures))
        probs[0] = -1.0
        with pytest.raises(ValueError, match="non-negative"):
            WeightedFailureSet.from_failure_set(failures, probs)

    def test_restriction_renormalizes(self, square_network):
        failures = legacy_failures(square_network)
        wfs = WeightedFailureSet.from_failure_set(
            failures, uniform_probabilities(failures)
        )
        arc = square_network.arc_id(0, 1)
        restricted = wfs.restricted_to_arcs([arc])
        assert len(restricted) == 1
        assert restricted.probabilities[0] == pytest.approx(1.0)

    def test_restriction_to_nothing_rejected(self, square_network):
        failures = legacy_failures(square_network)
        wfs = WeightedFailureSet.from_failure_set(
            failures, uniform_probabilities(failures)
        )
        with pytest.raises(ValueError, match="every scenario"):
            wfs.restricted_to_arcs([])


class TestProbabilityModels:
    def test_uniform(self, square_network):
        failures = legacy_failures(square_network)
        probs = uniform_probabilities(failures)
        assert np.allclose(probs, 1.0 / len(failures))

    def test_length_proportional_favors_long_links(self, square_network):
        failures = legacy_failures(square_network)
        probs = length_proportional_probabilities(square_network, failures)
        assert probs.sum() == pytest.approx(1.0)
        # the diagonal (0-2) is the longest link in the fixture
        diag_arc = square_network.arc_id(0, 2)
        diag_index = next(
            i
            for i, s in enumerate(failures)
            if diag_arc in s.failed_arcs
        )
        assert probs[diag_index] == probs.max()


class TestExpectedCost:
    def test_uniform_matches_mean(self, small_evaluator, random_setting):
        failures = legacy_failures(small_evaluator.network)
        wfs = WeightedFailureSet.from_failure_set(
            failures, uniform_probabilities(failures)
        )
        expected = expected_failure_cost(
            small_evaluator, random_setting, wfs
        )
        total = small_evaluator.evaluate_scenarios(
            random_setting, failures
        ).total_cost
        assert expected.lam == pytest.approx(total.lam / len(failures))
        assert expected.phi == pytest.approx(total.phi / len(failures))

    def test_point_mass_matches_single_scenario(
        self, small_evaluator, random_setting
    ):
        failures = legacy_failures(small_evaluator.network)
        probs = np.zeros(len(failures))
        probs[3] = 1.0
        wfs = WeightedFailureSet.from_failure_set(failures, probs)
        expected = expected_failure_cost(
            small_evaluator, random_setting, wfs
        )
        single = small_evaluator.evaluate(random_setting, failures[3])
        assert expected == CostPair(single.cost.lam, single.cost.phi)


class TestWeightedCriticality:
    def _estimate(self, n):
        return CriticalityEstimate(
            rho_lam=np.ones(n),
            rho_phi=np.ones(n),
            tail_lam=np.ones(n),
            tail_phi=np.ones(n),
            sample_counts=np.full(n, 5),
        )

    def test_uniform_weights_are_identity(self, square_network):
        failures = legacy_failures(square_network)
        estimate = self._estimate(square_network.num_arcs)
        weighted = weighted_criticality(
            estimate,
            square_network,
            failures,
            uniform_probabilities(failures),
        )
        np.testing.assert_allclose(weighted.rho_lam, estimate.rho_lam)

    def test_selection_prefers_likely_failures(self, square_network):
        failures = legacy_failures(square_network)
        estimate = self._estimate(square_network.num_arcs)
        probs = uniform_probabilities(failures)
        # make one link 10x as likely to fail
        probs[2] *= 10
        probs /= probs.sum()
        selection = select_probabilistic_critical_links(
            estimate, square_network, failures, probs, 2
        )
        assert set(failures[2].failed_arcs) & set(selection.critical_arcs)
