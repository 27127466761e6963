"""Tests for local-search scaffolding (controller, pool, move draws)."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.lexicographic import CostPair
from repro.core.local_search import (
    AcceptablePool,
    DiversificationController,
    SearchStats,
)
from repro.core.phase1 import run_phase1a
from repro.core.weights import WeightSetting


class TestDiversificationController:
    def test_diversifies_after_interval(self):
        ctrl = DiversificationController(interval=3, min_rounds=2, cutoff=0.01)
        assert not ctrl.note_iteration(improved=False)
        assert not ctrl.note_iteration(improved=False)
        assert ctrl.note_iteration(improved=False)

    def test_improvement_resets_counter(self):
        ctrl = DiversificationController(interval=2, min_rounds=2, cutoff=0.01)
        assert not ctrl.note_iteration(improved=False)
        assert not ctrl.note_iteration(improved=True)
        assert not ctrl.note_iteration(improved=False)
        assert ctrl.note_iteration(improved=False)

    def test_round_cap_forces_diversification(self):
        ctrl = DiversificationController(
            interval=5, min_rounds=1, cutoff=0.01, cap_factor=2
        )
        # 10 improving iterations never trip the no-improve rule,
        # but the cap (5*2) does.
        outcomes = [ctrl.note_iteration(improved=True) for _ in range(10)]
        assert outcomes[-1] is True
        assert not any(outcomes[:-1])

    def test_stop_rule_consecutive_quiet_rounds(self):
        ctrl = DiversificationController(interval=1, min_rounds=2, cutoff=0.01)
        ctrl.note_diversification(0.001)
        assert not ctrl.should_stop()
        ctrl.note_diversification(0.5)  # loud round resets
        ctrl.note_diversification(0.001)
        assert not ctrl.should_stop()
        ctrl.note_diversification(0.001)
        assert ctrl.should_stop()
        assert ctrl.rounds == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            DiversificationController(interval=0, min_rounds=1, cutoff=0.1)
        with pytest.raises(ValueError):
            DiversificationController(interval=1, min_rounds=1, cutoff=-0.1)


class TestAcceptablePool:
    def test_qualification_rule(self):
        pool = AcceptablePool(chi=0.2, capacity=4)
        best = CostPair(0.0, 100.0)
        assert pool.qualifies(CostPair(0.0, 115.0), best)
        assert not pool.qualifies(CostPair(0.0, 121.0), best)
        assert not pool.qualifies(CostPair(1.0, 100.0), best)

    def test_offer_stores_copy(self):
        pool = AcceptablePool(chi=0.2, capacity=4)
        ws = WeightSetting.uniform(5, 3)
        best = CostPair(0.0, 10.0)
        assert pool.offer(ws, CostPair(0.0, 11.0), best)
        ws.set_arc(0, 9, 9)  # mutating the original must not affect pool
        assert pool.best_first()[0].setting.arc_pair(0) == (3, 3)

    def test_duplicates_rejected(self):
        pool = AcceptablePool(chi=0.2, capacity=4)
        ws = WeightSetting.uniform(5, 3)
        best = CostPair(0.0, 10.0)
        assert pool.offer(ws, CostPair(0.0, 11.0), best)
        assert not pool.offer(ws, CostPair(0.0, 11.0), best)
        assert len(pool) == 1

    def test_capacity_evicts_worst(self):
        pool = AcceptablePool(chi=1.0, capacity=2)
        best = CostPair(0.0, 10.0)
        for i, phi in enumerate([18.0, 12.0, 15.0]):
            pool.offer(
                WeightSetting.uniform(4, i + 1), CostPair(0.0, phi), best
            )
        assert len(pool) == 2
        phis = [r.cost.phi for r in pool.best_first()]
        assert phis == [12.0, 15.0]

    def test_rebase_evicts_stale(self):
        pool = AcceptablePool(chi=0.2, capacity=4)
        best = CostPair(0.0, 100.0)
        pool.offer(WeightSetting.uniform(4, 1), CostPair(0.0, 118.0), best)
        pool.offer(WeightSetting.uniform(4, 2), CostPair(0.0, 101.0), best)
        pool.rebase(CostPair(0.0, 90.0))
        # 118 > 1.2*90, evicted; 101 <= 108 stays
        assert len(pool) == 1
        assert pool.best_first()[0].cost.phi == 101.0

    def test_is_empty(self):
        pool = AcceptablePool(chi=0.2, capacity=2)
        assert pool.is_empty()


class TestSearchStats:
    def test_defaults(self):
        stats = SearchStats()
        assert stats.iterations == 0
        assert stats.evaluations == 0
        assert stats.pruned_evaluations == 0


class _FakeTrial:
    def __init__(self, owner, setting, move, cost):
        self.evaluation = SimpleNamespace(cost=cost)
        self._owner, self._setting, self._move = owner, setting, move

    def commit(self):
        self._owner.commits += 1

    def rollback(self):
        self._move.revert(self._setting)
        self._owner.rollbacks += 1


class _FakeEvaluator:
    """Stands behind the trial seam with no router: every candidate
    costs less than the incumbent (``accept``) or more."""

    def __init__(self, config, num_arcs, accept):
        self.config = config
        self.network = SimpleNamespace(num_arcs=num_arcs)
        self.accept = accept
        self.trials = self.commits = self.rollbacks = 0

    def evaluate_normal(self, setting):
        return SimpleNamespace(cost=CostPair(0.0, 1000.0))

    def trial(self, setting, move, reuse=None):
        move.apply(setting)
        self.trials += 1
        phi = 1000.0 - self.trials if self.accept else 2000.0
        return _FakeTrial(self, setting, move, CostPair(0.0, phi))


def test_phase1a_sweep_draws_ignore_outcomes(tiny_config):
    """One Phase-1a sweep leaves the generator in the same state whether
    every trial commits or every trial rolls back."""
    config = tiny_config.replace(
        search=replace(tiny_config.search, max_iterations=1)
    )
    states, trials = [], []
    for accept in (True, False):
        evaluator = _FakeEvaluator(config, num_arcs=40, accept=accept)
        rng = np.random.default_rng(3)
        stats = SearchStats()
        run_phase1a(evaluator, rng, None, stats)
        assert stats.iterations == 1 and stats.diversifications == 0
        closed = evaluator.commits if accept else evaluator.rollbacks
        assert closed == evaluator.trials > 0
        states.append(rng.bit_generator.state)
        trials.append(evaluator.trials)
    assert states[0] == states[1]
    assert trials[0] == trials[1]
