"""Evaluator / optimizer integration of the unified scenario subsystem.

Pins the acceptance criteria of the refactor:

* legacy parity — sweeping the paper's single-link ScenarioSet is
  bit-identical to sweeping its bare FailureScenario items (the form
  Phase 2's ordered lists take), including on an optimized table2-style
  arm;
* exact multi-arc scenario evaluation — incremental routing matches
  from-scratch routing on SRLG / regional / k-link / node scenarios,
  randomized over weight settings;
* traffic variants — a composed scenario equals evaluating the variant
  traffic through a dedicated evaluator, bit for bit;
* one sweep contract — serial, caching and parallel evaluators accept
  the same scenario collections and agree bitwise.
"""

import inspect

import numpy as np
import pytest

from repro.analysis.tables import scenario_kind_columns
from repro.config import ExecutionParams
from repro.core.evaluation import DtrEvaluator, ScenarioCosts
from repro.core.optimizer import RobustDtrOptimizer
from repro.core.parallel import CachingDtrEvaluator, ParallelDtrEvaluator
from repro.core.weights import WeightSetting
from repro.exp.common import run_arms
from repro.scenarios import (
    GaussianSurge,
    GravityRescale,
    Scenario,
    ScenarioSet,
    cross,
    gaussian_surges,
    k_link_failures,
    legacy_failures,
    node_failures,
    regional_failures,
    srlg_failures,
)


def assert_evaluations_identical(a, b, context=""):
    assert a.cost.lam == b.cost.lam, context
    assert a.cost.phi == b.cost.phi, context
    assert a.sla.violations == b.sla.violations, context
    assert np.array_equal(a.loads_delay, b.loads_delay), context
    assert np.array_equal(a.loads_tput, b.loads_tput), context
    assert np.array_equal(
        a.pair_delays, b.pair_delays, equal_nan=True
    ), context


def _mixed_scenarios(network, seed=0) -> ScenarioSet:
    """A small set spanning every family shape (multi-arc + variants)."""
    return (
        srlg_failures(network, num_groups=3, group_size=2, seed=seed)
        + k_link_failures(network, k=2, max_scenarios=3, seed=seed)
        + regional_failures(network, num_regions=2, seed=seed)
        + node_failures(network, nodes=[0, 3])
        + gaussian_surges(count=2, seed=seed)
        + cross(
            srlg_failures(network, num_groups=1, group_size=2, seed=seed),
            [GaussianSurge(seed=seed + 7), GravityRescale(1.3)],
        )
    )


class TestLegacyParity:
    def test_wrapped_sweep_bitwise_equal(self, small_evaluator, rng):
        setting = WeightSetting.random(
            small_evaluator.network.num_arcs,
            small_evaluator.config.weights,
            rng,
        )
        wrapped = legacy_failures(small_evaluator.network)
        bare = [s.failure for s in wrapped]
        direct = small_evaluator.evaluate_scenarios(setting, bare)
        via_set = small_evaluator.evaluate_scenarios(setting, wrapped)
        assert len(direct) == len(via_set)
        for old, new in zip(direct.evaluations, via_set.evaluations):
            assert_evaluations_identical(old, new, old.scenario.label)
            assert old.kind is None
            assert new.kind == "link"

    @pytest.mark.slow
    def test_table2_arm_bitwise_equal(self, small_instance, tiny_config):
        """The table2 arm (optimize, sweep all single-link failures) is
        reproduced bit-identically from its bare failure scenarios."""
        network, traffic = small_instance
        from repro.exp.common import Instance

        instance = Instance(
            network=network, traffic=traffic, label="test", seed=0
        )
        outcome = run_arms(instance, tiny_config, seed=0)
        evaluator = DtrEvaluator(network, traffic, tiny_config)
        assert outcome.all_failures == legacy_failures(network)
        bare = [s.failure for s in outcome.all_failures]
        for setting in (
            outcome.robust_setting, outcome.regular_setting
        ):
            direct = evaluator.evaluate_scenarios(setting, bare)
            via_set = evaluator.evaluate_scenarios(
                setting, outcome.all_failures
            )
            assert direct.total_cost == via_set.total_cost
            for old, new in zip(
                direct.evaluations, via_set.evaluations
            ):
                assert_evaluations_identical(
                    old, new, old.scenario.label
                )


class TestMultiArcIncrementalParity:
    def test_incremental_matches_scratch_on_all_families(
        self, small_instance, tiny_config, rng
    ):
        """Randomized: incremental evaluation of composed multi-arc and
        variant scenarios == from-scratch evaluation, bit for bit."""
        network, traffic = small_instance
        fast = DtrEvaluator(network, traffic, tiny_config)
        scratch = DtrEvaluator(
            network,
            traffic,
            tiny_config.replace(
                execution=ExecutionParams(incremental_routing=False)
            ),
        )
        scenarios = _mixed_scenarios(network, seed=1)
        for trial in range(3):
            setting = WeightSetting.random(
                network.num_arcs, tiny_config.weights, rng
            )
            fast_reuse = fast.evaluate_normal(setting)
            scratch_reuse = scratch.evaluate_normal(setting)
            for scenario in scenarios:
                got = fast.evaluate(setting, scenario, reuse=fast_reuse)
                expected = scratch.evaluate(
                    setting, scenario, reuse=scratch_reuse
                )
                assert_evaluations_identical(
                    got, expected, f"{scenario.label} trial {trial}"
                )


class TestTrafficVariants:
    def test_variant_scenario_equals_sibling_traffic(
        self, small_evaluator, random_setting
    ):
        variant = GaussianSurge(eps=0.2, seed=3)
        composed = Scenario(variant=variant, kind="surge")
        got = small_evaluator.evaluate(random_setting, composed)
        manual = small_evaluator.with_traffic(
            variant.apply(small_evaluator.traffic)
        )
        expected = manual.evaluate(random_setting)
        assert_evaluations_identical(got, expected)
        assert got.variant == variant
        assert got.kind == "surge"
        assert got.routing_delay is None and got.routing_tput is None

    def test_failure_times_variant_composition(
        self, small_evaluator, random_setting
    ):
        network = small_evaluator.network
        failure = legacy_failures(network)[0].failure
        variant = GravityRescale(1.4)
        composed = Scenario(
            failure=failure, variant=variant, kind="linkxrescale"
        )
        got = small_evaluator.evaluate(random_setting, composed)
        manual = small_evaluator.with_traffic(
            variant.apply(small_evaluator.traffic)
        )
        expected = manual.evaluate(random_setting, failure)
        assert_evaluations_identical(got, expected)

    def test_variant_reuse_never_leaks_into_base(
        self, small_evaluator, random_setting
    ):
        """A variant evaluation passed as ``reuse`` must be ignored, not
        poison the base-traffic computation."""
        variant_eval = small_evaluator.evaluate(
            random_setting, Scenario(variant=GravityRescale(2.0))
        )
        base = small_evaluator.evaluate_normal(random_setting)
        with_bad_reuse = small_evaluator.evaluate(
            random_setting, reuse=variant_eval
        )
        assert_evaluations_identical(base, with_bad_reuse)

    def test_close_releases_siblings(self, small_evaluator, random_setting):
        small_evaluator.evaluate(
            random_setting, Scenario(variant=GravityRescale(1.2))
        )
        assert small_evaluator._variant_evaluators
        small_evaluator.close()
        assert not small_evaluator._variant_evaluators


class TestUnifiedSweepContract:
    def test_signatures_match(self):
        """The serial/parallel signature drift is gone: one contract."""
        serial = inspect.signature(DtrEvaluator.evaluate_scenarios)
        parallel = inspect.signature(
            ParallelDtrEvaluator.evaluate_scenarios
        )
        assert list(serial.parameters) == list(parallel.parameters)

    def test_parallel_matches_serial_on_mixed_set(
        self, small_instance, tiny_config, rng
    ):
        network, traffic = small_instance
        scenarios = _mixed_scenarios(network, seed=2)
        setting = WeightSetting.random(
            network.num_arcs, tiny_config.weights, rng
        )
        serial = DtrEvaluator(network, traffic, tiny_config)
        expected = serial.evaluate_scenarios(setting, scenarios)
        parallel_config = tiny_config.replace(
            execution=ExecutionParams(n_jobs=2)
        )
        with ParallelDtrEvaluator(
            network, traffic, parallel_config
        ) as parallel:
            got = parallel.evaluate_scenarios(setting, scenarios)
        assert len(got) == len(expected)
        for old, new in zip(expected.evaluations, got.evaluations):
            assert_evaluations_identical(old, new, old.scenario.label)
            assert new.kind == old.kind

    def test_caching_evaluator_handles_scenarioset(
        self, small_instance, tiny_config, rng
    ):
        network, traffic = small_instance
        scenarios = _mixed_scenarios(network, seed=3)
        setting = WeightSetting.random(
            network.num_arcs, tiny_config.weights, rng
        )
        serial = DtrEvaluator(network, traffic, tiny_config)
        caching = CachingDtrEvaluator(network, traffic, tiny_config)
        expected = serial.evaluate_scenarios(setting, scenarios)
        got = caching.evaluate_scenarios(setting, scenarios)
        for old, new in zip(expected.evaluations, got.evaluations):
            assert_evaluations_identical(old, new, old.scenario.label)


class TestScenarioCosts:
    def test_by_kind_partitions_and_sums(
        self, small_evaluator, random_setting
    ):
        scenarios = _mixed_scenarios(small_evaluator.network, seed=4)
        costs = small_evaluator.evaluate_scenarios(
            random_setting, scenarios
        )
        assert isinstance(costs, ScenarioCosts)
        parts = costs.by_kind()
        assert set(parts) == set(scenarios.kinds())
        assert sum(len(p) for p in parts.values()) == len(costs)
        total = sum(p.total_cost.lam for p in parts.values())
        assert total == pytest.approx(costs.total_cost.lam)

    def test_kind_columns(self, small_evaluator, random_setting):
        scenarios = _mixed_scenarios(small_evaluator.network, seed=5)
        costs = small_evaluator.evaluate_scenarios(
            random_setting, scenarios
        )
        columns = scenario_kind_columns(costs)
        assert any(key.startswith("viol[srlg]") for key in columns)
        assert any(key.startswith("top10%[") for key in columns)
        # Single-kind sweeps add no breakdown columns.
        single = small_evaluator.evaluate_scenarios(
            random_setting,
            legacy_failures(small_evaluator.network),
        )
        assert scenario_kind_columns(single) == {}


class TestOptimizerOverScenarioSet:
    @pytest.mark.slow
    def test_optimizes_against_explicit_set(
        self, small_instance, tiny_config
    ):
        network, traffic = small_instance
        scenarios = srlg_failures(
            network, num_groups=3, group_size=2, seed=6
        ) + gaussian_surges(count=1, seed=6)
        optimizer = RobustDtrOptimizer(
            network,
            traffic,
            tiny_config,
            rng=np.random.default_rng(6),
            scenarios=scenarios,
        )
        try:
            result = optimizer.run()
        finally:
            optimizer.close()
        assert result.all_failures is scenarios
        assert result.critical_failures is scenarios
        assert len(result.phase2.failure_evaluation) == len(scenarios)
        assert result.phase2.constraints.satisfied_by(
            result.phase2.normal_cost
        )
        # The reported K_fail matches an independent sweep of the set.
        check = DtrEvaluator(network, traffic, tiny_config)
        sweep = check.evaluate_scenarios(
            result.robust_setting, scenarios
        )
        assert sweep.total_cost == result.phase2.best_kfail
