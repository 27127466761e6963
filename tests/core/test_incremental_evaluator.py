"""Evaluator-level parity of the incremental delta-rerouting fast path.

``incremental_routing`` (on by default) must never change a computed
bit: candidate moves through :meth:`DtrEvaluator.evaluate_move`, failure
sweeps, and whole seeded experiments must match the from-scratch
evaluator exactly.
"""

import numpy as np
import pytest

from repro.config import ExecutionParams
from repro.core.evaluation import DtrEvaluator
from repro.core.perturbation import random_phase2_move
from repro.core.weights import WeightSetting
from repro.scenarios import legacy_failures, node_failures


def _scratch_evaluator(evaluator: DtrEvaluator) -> DtrEvaluator:
    config = evaluator.config.replace(
        execution=ExecutionParams(incremental_routing=False)
    )
    return DtrEvaluator(evaluator.network, evaluator.traffic, config)


def assert_evaluations_identical(a, b, context=""):
    assert a.cost.lam == b.cost.lam, context
    assert a.cost.phi == b.cost.phi, context
    assert a.sla.violations == b.sla.violations, context
    assert a.sla.disconnected == b.sla.disconnected, context
    assert np.array_equal(a.loads_delay, b.loads_delay), context
    assert np.array_equal(a.loads_tput, b.loads_tput), context
    assert np.array_equal(a.arc_delay, b.arc_delay), context
    assert np.array_equal(
        a.pair_delays, b.pair_delays, equal_nan=True
    ), context
    assert np.array_equal(a.utilization, b.utilization), context


class TestEvaluateMoveParity:
    def test_move_sequence_matches_scratch(self, small_evaluator, rng):
        """Moves, reverts and sweeps: incremental == from-scratch."""
        scratch = _scratch_evaluator(small_evaluator)
        network = small_evaluator.network
        config = small_evaluator.config
        failures = [s.failure for s in legacy_failures(network)]
        nodes = [s.failure for s in node_failures(network)]
        setting = WeightSetting.random(
            network.num_arcs, config.weights, rng
        )
        cur_fast = small_evaluator.evaluate_normal(setting)
        cur_slow = scratch.evaluate_normal(setting)
        assert_evaluations_identical(cur_fast, cur_slow, "initial")
        for step in range(25):
            arc = int(rng.integers(0, network.num_arcs))
            move = random_phase2_move(setting, arc, config.weights, rng)
            if not move.changes_anything:
                continue
            move.apply(setting)
            cand_fast = small_evaluator.evaluate_move(
                setting, move, reuse=cur_fast
            )
            cand_slow = scratch.evaluate_normal(setting)
            assert_evaluations_identical(
                cand_fast, cand_slow, f"move {step}"
            )
            for scenario in failures[::7] + nodes[:2]:
                got = small_evaluator.evaluate(
                    setting, scenario, reuse=cand_fast
                )
                expected = scratch.evaluate(
                    setting, scenario, reuse=cand_slow
                )
                assert_evaluations_identical(
                    got, expected, f"{scenario.label} at move {step}"
                )
            if rng.random() < 0.5:
                move.revert(setting)
                small_evaluator.revert_move(setting, move)
            else:
                cur_fast, cur_slow = cand_fast, cand_slow

    def test_evaluate_move_equals_evaluate_normal(
        self, small_evaluator, random_setting, rng
    ):
        arc = int(rng.integers(0, small_evaluator.network.num_arcs))
        base = small_evaluator.evaluate_normal(random_setting)
        move = random_phase2_move(
            random_setting, arc, small_evaluator.config.weights, rng
        )
        move.apply(random_setting)
        via_move = small_evaluator.evaluate_move(
            random_setting, move, reuse=base
        )
        via_normal = _scratch_evaluator(
            small_evaluator
        ).evaluate_normal(random_setting)
        assert_evaluations_identical(via_move, via_normal)

    def test_revert_move_is_noop_without_incremental(
        self, small_instance, tiny_config, rng
    ):
        network, traffic = small_instance
        config = tiny_config.replace(
            execution=ExecutionParams(incremental_routing=False)
        )
        evaluator = DtrEvaluator(network, traffic, config)
        setting = WeightSetting.random(
            network.num_arcs, config.weights, rng
        )
        move = random_phase2_move(setting, 0, config.weights, rng)
        move.apply(setting)
        outcome = evaluator.evaluate_move(setting, move)
        assert outcome.scenario.is_normal
        move.revert(setting)
        evaluator.revert_move(setting, move)  # must not raise


class TestFailureSweepParity:
    def test_full_sweep_bit_identical(self, small_evaluator, rng):
        scratch = _scratch_evaluator(small_evaluator)
        network = small_evaluator.network
        failures = legacy_failures(network)
        setting = WeightSetting.random(
            network.num_arcs, small_evaluator.config.weights, rng
        )
        fast = small_evaluator.evaluate_scenarios(setting, failures)
        slow = scratch.evaluate_scenarios(setting, failures)
        assert fast.total_cost.lam == slow.total_cost.lam
        assert fast.total_cost.phi == slow.total_cost.phi
        for a, b in zip(fast.evaluations, slow.evaluations):
            assert_evaluations_identical(a, b, a.scenario.label)

    def test_node_failure_sweep_bit_identical(self, small_evaluator, rng):
        scratch = _scratch_evaluator(small_evaluator)
        network = small_evaluator.network
        failures = node_failures(network)
        setting = WeightSetting.random(
            network.num_arcs, small_evaluator.config.weights, rng
        )
        fast = small_evaluator.evaluate_scenarios(setting, failures)
        slow = scratch.evaluate_scenarios(setting, failures)
        for a, b in zip(fast.evaluations, slow.evaluations):
            assert_evaluations_identical(a, b, a.scenario.label)


@pytest.mark.slow
class TestSeededPhasesUnchanged:
    def test_phase1_and_phase2_identical(self, small_instance, tiny_config):
        """The whole seeded two-phase search is invariant to the knob."""
        from repro.core.phase1 import run_phase1
        from repro.core.phase2 import RobustConstraints, run_phase2

        network, traffic = small_instance
        failures = legacy_failures(network)
        results = {}
        for incremental in (True, False):
            config = tiny_config.replace(
                execution=ExecutionParams(incremental_routing=incremental)
            )
            evaluator = DtrEvaluator(network, traffic, config)
            p1 = run_phase1(evaluator, np.random.default_rng(7))
            constraints = RobustConstraints(
                p1.best_cost.lam,
                p1.best_cost.phi,
                config.sampling.chi,
            )
            p2 = run_phase2(
                evaluator,
                failures,
                p1.pool,
                constraints,
                np.random.default_rng(8),
            )
            results[incremental] = (p1, p2)
        p1_fast, p2_fast = results[True]
        p1_slow, p2_slow = results[False]
        assert p1_fast.best_cost == p1_slow.best_cost
        assert p1_fast.best_setting == p1_slow.best_setting
        assert (
            p1_fast.selection.critical_arcs
            == p1_slow.selection.critical_arcs
        )
        assert p2_fast.best_kfail == p2_slow.best_kfail
        assert p2_fast.best_setting == p2_slow.best_setting
        assert p2_fast.stats.evaluations == p2_slow.stats.evaluations


@pytest.mark.slow
class TestSeededExperimentUnchanged:
    def test_table2_arm_identical_with_fast_path(self):
        """One seeded Table-II arm produces identical numbers either way.

        This is the Table-II computation (run_arms + SLA stats over all
        single-link failures) for one quick-preset topology, pinned
        incremental-on == incremental-off.
        """
        from repro.analysis.metrics import SlaViolationStats
        from repro.exp.common import evaluator_for, make_instance, run_arms
        from repro.exp.presets import QUICK

        instance = make_instance("rand", 10, 4.0, seed=1)
        rows = {}
        for incremental in (True, False):
            config = QUICK.config.replace(
                execution=ExecutionParams(incremental_routing=incremental)
            )
            outcome = run_arms(instance, config, seed=1)
            evaluator = evaluator_for(instance, config)
            rob = SlaViolationStats.from_failures(
                evaluator.evaluate_scenarios(
                    outcome.robust_setting, outcome.all_failures
                )
            )
            reg = SlaViolationStats.from_failures(
                evaluator.evaluate_scenarios(
                    outcome.regular_setting, outcome.all_failures
                )
            )
            rows[incremental] = (
                rob.mean,
                rob.top10_mean,
                reg.mean,
                reg.top10_mean,
                outcome.robust_setting.key(),
                outcome.regular_setting.key(),
            )
        assert rows[True] == rows[False]
