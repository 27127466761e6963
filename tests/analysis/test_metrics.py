"""Tests for analysis metrics."""

import numpy as np
import pytest

from repro.analysis.metrics import (
    SlaViolationStats,
    beta_metric,
    normalized_series,
    phi_degradation_percent,
    phi_gap_percent,
    sorted_pair_delays_ms,
    utilization_increase_after_failure,
)
from repro.scenarios import legacy_failures


@pytest.fixture
def failure_eval(small_evaluator, random_setting):
    failures = legacy_failures(small_evaluator.network)
    return small_evaluator.evaluate_scenarios(random_setting, failures)


class TestSlaViolationStats:
    def test_from_failures(self, failure_eval):
        stats = SlaViolationStats.from_failures(failure_eval)
        assert stats.mean == pytest.approx(
            np.mean(stats.per_scenario)
        )
        assert stats.worst == max(stats.per_scenario)
        assert stats.total == sum(stats.per_scenario)
        assert stats.top10_mean >= stats.mean

    def test_beta_is_mean(self, failure_eval):
        assert beta_metric(failure_eval) == pytest.approx(
            SlaViolationStats.from_failures(failure_eval).mean
        )


class TestPhiMetrics:
    def test_phi_gap_zero_for_self(self, failure_eval):
        assert phi_gap_percent(failure_eval, failure_eval) == 0.0

    def test_phi_degradation(self, small_evaluator, random_setting):
        normal = small_evaluator.evaluate_normal(random_setting)
        assert phi_degradation_percent(normal, normal) == 0.0


class TestUtilizationIncrease:
    def test_counts_surviving_arcs_only(
        self, small_evaluator, random_setting
    ):
        failures = legacy_failures(small_evaluator.network)
        normal = small_evaluator.evaluate_normal(random_setting)
        failed = small_evaluator.evaluate(random_setting, failures[0])
        count, mean_increase = utilization_increase_after_failure(
            normal, failed
        )
        alive = small_evaluator.network.num_arcs - len(
            failures[0].failed_arcs
        )
        assert 0 <= count <= alive
        if count:
            assert mean_increase > 0


class TestSeriesHelpers:
    def test_sorted_pair_delays(self, small_evaluator, random_setting):
        outcome = small_evaluator.evaluate_normal(random_setting)
        delays = sorted_pair_delays_ms(outcome)
        n = small_evaluator.network.num_nodes
        assert delays.shape == (n * (n - 1),)
        assert np.all(np.diff(delays) >= 0)
        assert delays.max() < 1000  # sane millisecond range

    def test_normalized_series(self):
        out = normalized_series(np.asarray([1.0, 2.0, 4.0]))
        np.testing.assert_allclose(out, [0.25, 0.5, 1.0])

    def test_normalized_zero_series(self):
        out = normalized_series(np.zeros(3))
        np.testing.assert_array_equal(out, np.zeros(3))
