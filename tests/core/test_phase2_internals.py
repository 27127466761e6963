"""Unit tests for Phase-2 internals: ordering, pruning, reuse."""

import pytest

from repro.core.lexicographic import CostPair
from repro.core.local_search import SearchStats
from repro.core.phase2 import _ordered_sweep, bounded_failure_cost
from repro.scenarios import legacy_failures


class TestOrderedSweep:
    def test_orders_scenarios_worst_first(
        self, small_evaluator, random_setting
    ):
        failures = legacy_failures(small_evaluator.network)
        stats = SearchStats()
        ordered, total, _ = _ordered_sweep(
            small_evaluator, random_setting, failures, stats
        )
        assert len(ordered) == len(failures)
        # recompute per-scenario costs and verify the ordering keys
        costs = [
            small_evaluator.evaluate(random_setting, s).cost
            for s in ordered
        ]
        keys = [(-c.lam, -c.phi) for c in costs]
        assert keys == sorted(keys)
        # and the reported total matches the component-wise sum
        assert total.lam == pytest.approx(sum(c.lam for c in costs))
        assert total.phi == pytest.approx(sum(c.phi for c in costs))

    def test_total_invariant_under_ordering(
        self, small_evaluator, random_setting
    ):
        failures = legacy_failures(small_evaluator.network)
        stats = SearchStats()
        _, total, _ = _ordered_sweep(
            small_evaluator, random_setting, failures, stats
        )
        direct = small_evaluator.evaluate_scenarios(
            random_setting, failures
        ).total_cost
        assert total.lam == pytest.approx(direct.lam)
        assert total.phi == pytest.approx(direct.phi, rel=1e-12)


class TestBoundedCostWithReuse:
    def test_reuse_does_not_change_result(
        self, small_evaluator, random_setting
    ):
        failures = legacy_failures(small_evaluator.network)
        normal = small_evaluator.evaluate_normal(random_setting)
        without = bounded_failure_cost(
            small_evaluator, random_setting, failures, None
        )
        with_reuse = bounded_failure_cost(
            small_evaluator, random_setting, failures, None, reuse=normal
        )
        assert without is not None and with_reuse is not None
        assert without.lam == pytest.approx(with_reuse.lam)
        assert without.phi == pytest.approx(with_reuse.phi, rel=1e-12)

    def test_pruning_counts_in_stats(
        self, small_evaluator, random_setting
    ):
        failures = legacy_failures(small_evaluator.network)
        stats = SearchStats()
        result = bounded_failure_cost(
            small_evaluator,
            random_setting,
            failures,
            CostPair(-1.0, -1.0),
            stats,
        )
        assert result is None
        assert stats.pruned_evaluations == 1
        # pruning on the first scenario means exactly one evaluation
        assert stats.evaluations == 1

    def test_exact_bound_not_pruned_to_none_when_equal(
        self, small_evaluator, random_setting
    ):
        failures = legacy_failures(small_evaluator.network)
        exact = bounded_failure_cost(
            small_evaluator, random_setting, failures, None
        )
        assert exact is not None
        # a bound exactly equal to the final cost must not prune (the
        # candidate ties, it does not exceed)
        again = bounded_failure_cost(
            small_evaluator, random_setting, failures, exact
        )
        assert again is not None
        assert again.lam == pytest.approx(exact.lam)
