"""Costs-only sweeps and the (setting, scenario-set) sweep memo."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.evaluation import (
    DtrEvaluator,
    SweepMemoStats,
    compact_evaluation,
)
from repro.core.parallel import ParallelDtrEvaluator
from repro.core.weights import WeightSetting
from repro.scenarios.generators import legacy_failures


@pytest.fixture
def failures(small_evaluator):
    return legacy_failures(small_evaluator.network)


def make_setting(evaluator, seed):
    return WeightSetting.random(
        evaluator.network.num_arcs,
        evaluator.config.weights,
        np.random.default_rng(seed),
    )


def test_costs_match_full_sweep(small_evaluator, failures):
    """Costs-only sweeps compute the same scalars as full sweeps, with
    the heavy per-scenario arrays dropped."""
    setting = make_setting(small_evaluator, 11)
    full = small_evaluator.evaluate_scenarios(setting, failures)
    compact = small_evaluator.evaluate_scenario_costs(setting, failures)
    assert len(compact.evaluations) == len(full.evaluations)
    for got, want in zip(compact.evaluations, full.evaluations):
        assert got.cost == want.cost
        assert got.sla == want.sla
        assert got.scenario == want.scenario
        assert got.loads_delay is None
        assert got.pair_delays is None
        assert got.routing_delay is None
    assert compact.total_cost == full.total_cost


def test_compact_evaluation_idempotent(small_evaluator, random_setting):
    evaluation = small_evaluator.evaluate_normal(random_setting)
    compact = compact_evaluation(evaluation)
    assert compact.loads_delay is None
    assert compact_evaluation(compact) is compact
    assert compact.cost == evaluation.cost


def test_repeat_sweep_hits_memo(small_evaluator, failures):
    """The second identical sweep is a memo hit: same object back, no
    additional evaluations counted."""
    setting = make_setting(small_evaluator, 5)
    first = small_evaluator.evaluate_scenario_costs(setting, failures)
    evaluations_after_first = small_evaluator.num_evaluations
    stats = small_evaluator.sweep_memo_stats
    assert stats.misses >= 1
    assert stats.hits == 0

    second = small_evaluator.evaluate_scenario_costs(setting, failures)
    assert second is first
    assert small_evaluator.sweep_memo_stats.hits == 1
    assert small_evaluator.num_evaluations == evaluations_after_first


def test_memo_distinguishes_settings_and_sets(small_evaluator, failures):
    setting_a = make_setting(small_evaluator, 1)
    setting_b = make_setting(small_evaluator, 2)
    subset = list(failures)[:3]
    small_evaluator.evaluate_scenario_costs(setting_a, failures)
    small_evaluator.evaluate_scenario_costs(setting_b, failures)
    small_evaluator.evaluate_scenario_costs(setting_a, subset)
    assert small_evaluator.sweep_memo_stats.hits == 0
    assert small_evaluator.sweep_memo_stats.misses == 3
    small_evaluator.evaluate_scenario_costs(setting_a, subset)
    assert small_evaluator.sweep_memo_stats.hits == 1


def test_memo_stats_arithmetic():
    stats = SweepMemoStats(hits=3, misses=1)
    assert stats.lookups == 4
    assert stats.hit_rate == 0.75
    total = stats + SweepMemoStats(hits=1, misses=3)
    assert total == SweepMemoStats(hits=4, misses=4)
    assert SweepMemoStats().hit_rate == 0.0


@pytest.mark.parallel
def test_parallel_costs_only_parity(small_instance, tiny_config, failures):
    """The parallel costs-only sweep (workers fold locally) matches the
    serial full sweep bit-for-bit on every scalar."""
    network, traffic = small_instance
    serial = DtrEvaluator(network, traffic, tiny_config)
    parallel_config = tiny_config.replace(
        execution=dataclasses.replace(tiny_config.execution, n_jobs=2)
    )
    setting = make_setting(serial, 21)
    expected = serial.evaluate_scenarios(setting, failures)
    with ParallelDtrEvaluator(network, traffic, parallel_config) as pool:
        compact = pool.evaluate_scenario_costs(setting, failures)
        assert [e.cost for e in compact.evaluations] == [
            e.cost for e in expected.evaluations
        ]
        assert [e.sla for e in compact.evaluations] == [
            e.sla for e in expected.evaluations
        ]
        assert compact.total_cost == expected.total_cost
        # And the memo serves the repeat without touching the pool.
        again = pool.evaluate_scenario_costs(setting, failures)
        assert again is compact
        assert pool.sweep_memo_stats.hits == 1


@pytest.mark.slow
def test_phase2_run_reports_memo_stats(small_instance, tiny_config):
    """An end-to-end run makes no costs-only sweep: Phase 2 sweeps
    in-process to keep its incumbent's scenario records, so the memo
    reports no lookups, and the records' reuse shows instead in the
    search counters (verbatim scenario costs) and in the routers'
    journal restores (rolled-back moves)."""
    from repro.core.optimizer import RobustDtrOptimizer

    network, traffic = small_instance
    optimizer = RobustDtrOptimizer(
        network, traffic, tiny_config, rng=np.random.default_rng(4)
    )
    result = optimizer.run()
    assert optimizer.evaluator.sweep_memo_stats.lookups == 0
    stats = result.phase2.stats
    assert 0 < stats.verbatim_evaluations < stats.evaluations
    routers = optimizer.evaluator._routers.values()
    assert routers and all(router.stats.restores > 0 for router in routers)
