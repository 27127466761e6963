"""Evaluator-level parity of the incremental delta-rerouting fast path.

``incremental_routing`` (on by default) must never change a computed
bit: candidate moves through the evaluator's move seam
(:meth:`DtrEvaluator.trial`), failure sweeps, and whole seeded
experiments must match the from-scratch evaluator exactly.
"""

import numpy as np
import pytest

from repro.config import ExecutionParams, OptimizerConfig
from repro.core.evaluation import DtrEvaluator, ScenarioRecord
from repro.core.local_search import SearchStats
from repro.core.perturbation import (
    Move,
    random_pair_move,
    random_phase2_move,
)
from repro.core.phase2 import bounded_failure_cost
from repro.core.weights import WeightSetting
from repro.exp.common import make_instance
from repro.routing.incremental import SYNC_DELTA_LIMIT, IncrementalRouter
from repro.scenarios import legacy_failures, node_failures, srlg_failures


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


def _assert_routers_match_a_rebuild(evaluator, setting, context):
    """Both routers' whole state equals a fresh build at ``setting``."""
    traffic = evaluator.traffic
    for class_id, weights, demands in (
        ("delay", setting.delay, traffic.delay.values),
        ("tput", setting.tput, traffic.throughput.values),
    ):
        router = evaluator._routers[class_id]
        fresh = IncrementalRouter(evaluator.network, demands, weights)
        assert np.array_equal(router.weights, fresh.weights), context
        assert np.array_equal(router._dist_cols, fresh._dist_cols), context
        assert np.array_equal(router._masks, fresh._masks), context
        assert np.array_equal(router._contribs, fresh._contribs), context
        assert np.array_equal(router._und, fresh._und), context
        got, expected = router.routing, fresh.routing
        assert np.array_equal(got.dist, expected.dist), context
        assert np.array_equal(got.masks, expected.masks), context
        assert np.array_equal(got.loads, expected.loads), context
        assert got.undelivered == expected.undelivered, context


class TestMoveTrial:
    @pytest.mark.parametrize("nodes", [8, 12, 16])
    def test_random_trials_match_scratch_and_a_rebuild(self, nodes):
        """32 seeded trials of pair and Phase-2 moves, each committed or
        rolled back at random, with multi-arc jumps between trials (a
        few deltas, or a rebuild past ``SYNC_DELTA_LIMIT``): every
        candidate equals the from-scratch evaluation bitwise, every
        rollback restores the setting, and after every rollback and
        jump the routers' whole state equals a fresh build there."""
        config = OptimizerConfig()
        instance = make_instance("rand", nodes, 4.0, seed=nodes)
        network, traffic = instance.network, instance.traffic
        fast = DtrEvaluator(network, traffic, config)
        scratch = _scratch_evaluator(fast)
        failures = [s.failure for s in legacy_failures(network)]
        rng = np.random.default_rng(nodes)
        setting = WeightSetting.random(network.num_arcs, config.weights, rng)
        base = fast.evaluate_normal(setting)
        trials = commits = jumps = 0
        while trials < 32:
            if rng.random() < 0.15:
                arcs = rng.choice(
                    network.num_arcs,
                    int(rng.integers(2, 2 * SYNC_DELTA_LIMIT + 1)),
                    replace=False,
                )
                for arc in arcs.tolist():
                    setting.set_arc(
                        arc,
                        int(rng.integers(1, config.weights.w_max + 1)),
                        int(rng.integers(1, config.weights.w_max + 1)),
                    )
                base = fast.evaluate_normal(setting)
                jumps += 1
                assert_evaluations_identical(
                    base, scratch.evaluate_normal(setting), f"jump {jumps}"
                )
                _assert_routers_match_a_rebuild(
                    fast, setting, f"jump {jumps}"
                )
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
                _assert_routers_match_a_rebuild(
                    fast, setting, f"rollback of trial {trials}"
                )
        assert 0 < commits < trials and jumps > 0
        assert all(r.stats.restores > 0 for r in fast._routers.values())
        _assert_routers_match_a_rebuild(fast, setting, "end")

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


def _records(evaluator, setting, scenarios, normal):
    costs = DtrEvaluator.evaluate_scenarios(
        evaluator, setting, scenarios, reuse=normal
    )
    return {
        scenario: ScenarioRecord.of(outcome, normal)
        for scenario, outcome in zip(scenarios, costs.evaluations)
    }


def _draw_move(setting, scenarios, normal, w_max, rng) -> Move:
    """A one- or two-class move: a third of them on an arc some scenario
    kills, a fifth raising a weight the class's NORMAL routing leaves
    unused, the rest anywhere; every redraw may raise or lower a
    weight."""
    old_delay = old_tput = 0
    roll = rng.random()
    if roll < 0.2:
        routings = (normal.routing_delay, normal.routing_tput)
        pos = int(rng.integers(2))
        unused = np.flatnonzero(~routings[pos].used_arcs())
        arc = int(rng.choice(unused)) if unused.size else 0
        old_delay, old_tput = setting.arc_pair(arc)
        old = (old_delay, old_tput)[pos]
        new = int(rng.integers(old, w_max + 1))
        if pos == 0:
            return Move(arc, new, old_tput, old_delay, old_tput)
        return Move(arc, old_delay, new, old_delay, old_tput)
    if roll < 0.55:
        failure = scenarios[int(rng.integers(len(scenarios)))].failure
        arc = int(rng.choice(failure.failed_arcs))
    else:
        arc = int(rng.integers(setting.num_arcs))
    old_delay, old_tput = setting.arc_pair(arc)
    new_delay, new_tput = old_delay, old_tput
    which = rng.integers(3)  # delay, tput or both
    if which != 1:
        new_delay = int(rng.integers(1, w_max + 1))
    if which != 0:
        new_tput = int(rng.integers(1, w_max + 1))
    return Move(arc, new_delay, new_tput, old_delay, old_tput)


class TestScenarioReuseRule:
    @pytest.mark.parametrize("nodes", [8, 12])
    def test_unmoved_classes_route_as_the_incumbent(self, nodes):
        """Random incumbent/candidate pairs over link, node and SRLG
        scenarios: whenever the move trial's rule calls a class routing
        unmoved (same weight, dead arc, or no affected destination of an
        increase or a decrease), a from-scratch ``route_class`` of the
        candidate equals the incumbent's routing bitwise, and every
        scenario the trial prices equals the from-scratch evaluation."""
        config = OptimizerConfig()
        instance = make_instance("rand", nodes, 4.0, seed=nodes + 1)
        network, traffic = instance.network, instance.traffic
        evaluator = DtrEvaluator(network, traffic, config)
        scratch = _scratch_evaluator(evaluator)
        engine = scratch.engine
        scenarios = list(
            legacy_failures(network)
            + node_failures(network)
            + srlg_failures(network, num_groups=4, group_size=2, seed=1)
        )
        rng = np.random.default_rng(nodes)
        seen = {"same": 0, "dead": 0, "increase": 0, "decrease": 0}
        for _ in range(12):
            setting = WeightSetting.random(
                network.num_arcs, config.weights, rng
            )
            normal = evaluator.evaluate_normal(setting)
            records = _records(evaluator, setting, scenarios, normal)
            for _ in range(4):
                move = _draw_move(
                    setting, scenarios, normal, config.weights.w_max, rng
                )
                if not move.changes_anything:
                    continue
                trial = evaluator.trial(
                    setting, move, reuse=normal, records=records
                )
                for scenario in scenarios:
                    record = records[scenario]
                    unmoved = trial._unmoved(scenario, record.routings)
                    failure = scenario.failure
                    for pos, (weights, demands, old, new) in enumerate((
                        (setting.delay, traffic.delay.values,
                         move.old_delay, move.new_delay),
                        (setting.tput, traffic.throughput.values,
                         move.old_tput, move.new_tput),
                    )):
                        if unmoved[pos] is None:
                            continue
                        if old == new:
                            seen["same"] += 1
                        elif move.arc in failure.failed_arcs:
                            seen["dead"] += 1
                        else:
                            seen["increase" if new > old else "decrease"] += 1
                        expected = engine.route_class(
                            weights, demands, failure
                        )
                        got = unmoved[pos]
                        assert np.array_equal(
                            got.destinations, expected.destinations
                        )
                        assert np.array_equal(got.dist, expected.dist)
                        assert np.array_equal(got.masks, expected.masks)
                        assert np.array_equal(got.loads, expected.loads)
                        assert np.array_equal(got.demands, expected.demands)
                        assert got.undelivered == expected.undelivered
                    outcome, _ = trial.evaluate(scenario)
                    assert_evaluations_identical(
                        outcome,
                        scratch.evaluate(setting, scenario),
                        f"{failure.label} after {move}",
                    )
                trial.rollback()
        assert min(seen.values()) > 0, seen

    def test_bounded_sweep_with_reuse_matches_without(self):
        """A bounded sweep priced through the trial's records returns
        what the plain per-scenario sweep returns, pruned or not, with
        the same evaluation counts; accepted candidates' records carry
        over to the next move."""
        config = OptimizerConfig()
        instance = make_instance("rand", 12, 4.0, seed=5)
        network, traffic = instance.network, instance.traffic
        evaluator = DtrEvaluator(network, traffic, config)
        plain = _scratch_evaluator(evaluator)
        scenarios = list(
            legacy_failures(network)
            + node_failures(network)
            + srlg_failures(network, num_groups=4, group_size=2, seed=2)
        )
        rng = np.random.default_rng(5)
        setting = WeightSetting.random(network.num_arcs, config.weights, rng)
        normal = evaluator.evaluate_normal(setting)
        records = _records(evaluator, setting, scenarios, normal)
        incumbent = bounded_failure_cost(plain, setting, scenarios, None)
        outcomes = {"pruned": 0, "kept": 0}
        reused = SearchStats()
        for _ in range(40):
            move = _draw_move(
                setting, scenarios, normal, config.weights.w_max, rng
            )
            if not move.changes_anything:
                continue
            trial = evaluator.trial(
                setting, move, reuse=normal, records=records
            )
            bound = None if rng.random() < 0.25 else incumbent
            with_reuse = bounded_failure_cost(
                evaluator, setting, scenarios, bound, reused, trial=trial
            )
            counted = SearchStats()
            without = bounded_failure_cost(
                plain, setting, scenarios, bound, counted
            )
            assert with_reuse == without
            outcomes["pruned" if without is None else "kept"] += 1
            if without is not None and (
                bound is None or without.is_better_than(incumbent)
            ):
                trial.commit()
                normal, records = trial.evaluation, trial.records
                incumbent = without
                assert len(records) == len(set(scenarios))
            else:
                trial.rollback()
        assert min(outcomes.values()) > 0, outcomes
        assert reused.verbatim_evaluations > 0
