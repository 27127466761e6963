"""Evaluator-level parity of the incremental delta-rerouting fast path.

``incremental_routing`` (on by default) must never change a computed
bit: candidate moves through the evaluator's move seam
(:meth:`DtrEvaluator.trial`), failure sweeps, and whole seeded
experiments must match the from-scratch evaluator exactly.
"""

import numpy as np
import pytest

from repro.config import ExecutionParams, OptimizerConfig
from repro.core.evaluation import DtrEvaluator
from repro.core.perturbation import (
    Move,
    random_pair_move,
    random_phase2_move,
)
from repro.core.weights import WeightSetting
from repro.exp.common import make_instance
from repro.routing.incremental import IncrementalRouter
from repro.scenarios import legacy_failures, node_failures


def _scratch_evaluator(evaluator: DtrEvaluator) -> DtrEvaluator:
    config = evaluator.config.replace(
        execution=ExecutionParams(incremental_routing=False)
    )
    return DtrEvaluator(evaluator.network, evaluator.traffic, config)


def _bump(setting: WeightSetting, arc: int, w_max: int) -> Move:
    """A move that changes both class weights of ``arc``."""
    old_delay, old_tput = setting.arc_pair(arc)
    return Move(
        arc, old_delay % w_max + 1, old_tput % w_max + 1, old_delay, old_tput
    )


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
        """Trials, rollbacks and sweeps: incremental == from-scratch."""
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
            trial = small_evaluator.trial(setting, move, reuse=cur_fast)
            cand_fast = trial.evaluation
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
                trial.rollback()
            else:
                trial.commit()
                cur_fast, cur_slow = cand_fast, cand_slow

    def test_evaluate_move_equals_evaluate_normal(
        self, small_evaluator, random_setting, rng
    ):
        arc = int(rng.integers(0, small_evaluator.network.num_arcs))
        base = small_evaluator.evaluate_normal(random_setting)
        move = random_phase2_move(
            random_setting, arc, small_evaluator.config.weights, rng
        )
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
        """Without incremental routing a trial builds and syncs no
        router, and its rollback still restores the setting."""
        network, traffic = small_instance
        config = tiny_config.replace(
            execution=ExecutionParams(incremental_routing=False)
        )
        evaluator = DtrEvaluator(network, traffic, config)
        setting = WeightSetting.random(
            network.num_arcs, config.weights, rng
        )
        before = setting.copy()
        move = _bump(setting, 0, config.weights.w_max)
        trial = evaluator.trial(setting, move)
        assert trial.evaluation.scenario.is_normal
        assert setting.arc_pair(0) == (move.new_delay, move.new_tput)
        trial.rollback()
        assert setting == before
        assert not evaluator._routers


class TestMoveTrial:
    @pytest.mark.parametrize("nodes", [8, 12, 16])
    def test_random_trials_match_scratch_and_a_rebuild(self, nodes):
        """30+ seeded trials of pair and Phase-2 moves, each committed or
        rolled back at random: every candidate equals the from-scratch
        evaluation bitwise, every rollback restores the setting, and the
        routers end where a fresh build at the final weights starts."""
        config = OptimizerConfig()
        instance = make_instance("rand", nodes, 4.0, seed=nodes)
        network, traffic = instance.network, instance.traffic
        fast = DtrEvaluator(network, traffic, config)
        scratch = _scratch_evaluator(fast)
        failures = [s.failure for s in legacy_failures(network)]
        rng = np.random.default_rng(nodes)
        setting = WeightSetting.random(network.num_arcs, config.weights, rng)
        base = fast.evaluate_normal(setting)
        trials = commits = 0
        while trials < 32:
            draw = random_pair_move if rng.random() < 0.5 else (
                random_phase2_move
            )
            arc = int(rng.integers(network.num_arcs))
            move = draw(setting, arc, config.weights, rng)
            if not move.changes_anything:
                continue
            before = setting.copy()
            trial = fast.trial(setting, move, reuse=base)
            trials += 1
            assert_evaluations_identical(
                trial.evaluation, scratch.evaluate_normal(setting),
                f"trial {trials}",
            )
            if rng.random() < 0.3:
                # Phase 2 sweeps scenarios while its trial is open.
                failure = failures[int(rng.integers(len(failures)))]
                assert_evaluations_identical(
                    fast.evaluate(setting, failure, reuse=trial.evaluation),
                    scratch.evaluate(setting, failure),
                    failure.label,
                )
            if rng.random() < 0.3:
                trial.commit()
                base = trial.evaluation
                commits += 1
            else:
                trial.rollback()
                assert setting == before, f"rollback of trial {trials}"
        assert 0 < commits < trials
        for class_id, weights, demands in (
            ("delay", setting.delay, traffic.delay.values),
            ("tput", setting.tput, traffic.throughput.values),
        ):
            router = fast._routers[class_id]
            fresh = IncrementalRouter(network, demands, weights)
            assert np.array_equal(router._dist_cols, fresh._dist_cols)
            assert np.array_equal(router._masks, fresh._masks)
            assert np.array_equal(router._contribs, fresh._contribs)
            assert np.array_equal(router._und, fresh._und)
            got, expected = router.routing, fresh.routing
            assert np.array_equal(got.dist, expected.dist)
            assert np.array_equal(got.masks, expected.masks)
            assert np.array_equal(got.loads, expected.loads)
            assert got.undelivered == expected.undelivered

    def test_a_trial_closes_exactly_once(self, small_evaluator, rng):
        config = small_evaluator.config
        setting = WeightSetting.random(
            small_evaluator.network.num_arcs, config.weights, rng
        )
        for close, again in (
            ("commit", "commit"),
            ("commit", "rollback"),
            ("rollback", "rollback"),
            ("rollback", "commit"),
        ):
            move = _bump(setting, 0, config.weights.w_max)
            trial = small_evaluator.trial(setting, move)
            getattr(trial, close)()
            moved = setting.copy()
            with pytest.raises(RuntimeError, match="already closed"):
                getattr(trial, again)()
            assert setting == moved

    def test_one_trial_open_at_a_time(self, small_evaluator, rng):
        config = small_evaluator.config
        setting = WeightSetting.random(
            small_evaluator.network.num_arcs, config.weights, rng
        )
        first = small_evaluator.trial(
            setting, random_pair_move(setting, 0, config.weights, rng)
        )
        moved = setting.copy()
        with pytest.raises(RuntimeError, match="already open"):
            small_evaluator.trial(
                setting, random_pair_move(setting, 1, config.weights, rng)
            )
        assert setting == moved
        first.rollback()
        small_evaluator.trial(
            setting, random_pair_move(setting, 1, config.weights, rng)
        ).commit()


class TestNormalColumnRule:
    def test_reused_columns_under_moved_distances_stay_exact(self):
        """Cells whose mask row and masked arc delays equal the NORMAL
        evaluation's but whose distance column moved take the NORMAL
        delay column; the move and per-scenario paths built on them stay
        bitwise equal to the from-scratch evaluator."""
        config = OptimizerConfig()
        moved_cells = 0
        for nodes in (8, 12, 16):
            for seed in range(6):
                instance = make_instance("rand", nodes, 4.0, seed=seed)
                network, traffic = instance.network, instance.traffic
                fast = DtrEvaluator(network, traffic, config)
                scratch = _scratch_evaluator(fast)
                rng = np.random.default_rng(seed)
                setting = WeightSetting.random(
                    network.num_arcs, config.weights, rng
                )
                base = fast.evaluate_normal(setting)
                failures = [s.failure for s in legacy_failures(network)]
                used = np.flatnonzero(base.routing_delay.used_arcs())
                for arc in rng.choice(used, size=5, replace=False):
                    old_delay, old_tput = setting.arc_pair(int(arc))
                    move = Move(
                        int(arc), old_delay + 1, old_tput, old_delay,
                        old_tput,
                    )
                    trial = fast.trial(setting, move, reuse=base)
                    moved = trial.evaluation
                    assert_evaluations_identical(
                        moved, scratch.evaluate_normal(setting), "move"
                    )
                    before, after = base.routing_delay, moved.routing_delay
                    for row, t in enumerate(after.destinations):
                        mask = after.masks[row]
                        moved_cells += bool(
                            np.array_equal(mask, before.masks[row])
                            and np.array_equal(
                                moved.arc_delay[mask], base.arc_delay[mask]
                            )
                            and not np.array_equal(
                                after.dist[:, t], before.dist[:, t]
                            )
                        )
                    for failure in failures[::5]:
                        assert_evaluations_identical(
                            fast.evaluate(setting, failure, reuse=moved),
                            scratch.evaluate(setting, failure),
                            failure.label,
                        )
                    trial.rollback()
        assert moved_cells > 0


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
