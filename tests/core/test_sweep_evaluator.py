"""Evaluator integration of the scenario-axis batch sweep engine.

Pins the PR's acceptance criteria:

* batched sweeps are bit-identical to the serial per-scenario path on
  integer-weight instances, randomized across every scenario family
  (srlg / multi2 / regional / node / surge / cross), and touch neither
  the routing cache nor the propagation and delay memos;
* the ``sweep_batching`` knob defaults on under ``auto``, can be
  disabled, requires incremental routing, and validates its values;
* fanned-out results (local sweep hosts) are invariant to ``n_jobs``
  and ``chunk_size`` and bit-identical to serial, and every fanned-out
  sweep — batched or per-scenario hosts — publishes once per host and
  then ships ticket-sized tasks.
"""

import numpy as np
import pytest

from repro.config import ExecutionParams
from repro.core.evaluation import DtrEvaluator
from repro.core.parallel import (
    CachingDtrEvaluator,
    ParallelDtrEvaluator,
    make_evaluator,
)
from repro.core.weights import WeightSetting
from repro.routing.backend import (
    SWEEP_BATCH_MIN_SCENARIOS,
    validate_sweep_batching,
)
from repro.scenarios import (
    GaussianSurge,
    GravityRescale,
    cross,
    gaussian_surges,
    k_link_failures,
    legacy_failures,
    node_failures,
    regional_failures,
    srlg_failures,
)


def _mixed_scenarios(network, seed=0):
    """A set spanning every family shape (multi-arc + variants)."""
    return (
        srlg_failures(network, num_groups=3, group_size=2, seed=seed)
        + k_link_failures(network, k=2, max_scenarios=3, seed=seed)
        + regional_failures(network, num_regions=2, seed=seed)
        + node_failures(network, nodes=[0, 3])
        + gaussian_surges(count=2, seed=seed)
        + cross(
            srlg_failures(network, num_groups=2, group_size=2, seed=seed),
            [GaussianSurge(seed=seed + 7), GravityRescale(1.3)],
        )
    )


def assert_sweeps_identical(a, b):
    assert len(a) == len(b)
    for x, y in zip(a.evaluations, b.evaluations):
        assert x.scenario == y.scenario
        assert x.kind == y.kind
        assert x.variant == y.variant
        assert x.cost.lam == y.cost.lam
        assert x.cost.phi == y.cost.phi
        assert x.sla.violations == y.sla.violations
        assert x.sla.disconnected == y.sla.disconnected
        assert np.array_equal(x.loads_delay, y.loads_delay)
        assert np.array_equal(x.loads_tput, y.loads_tput)
        assert np.array_equal(x.arc_delay, y.arc_delay)
        assert np.array_equal(x.pair_delays, y.pair_delays, equal_nan=True)
        assert np.array_equal(x.utilization, y.utilization)


def _evaluator(network, traffic, config, mode, **kwargs):
    execution = ExecutionParams(sweep_batching=mode, **kwargs)
    return DtrEvaluator(
        network, traffic, config.replace(execution=execution)
    )


class TestKnob:
    def test_validation(self):
        assert validate_sweep_batching("auto") == "auto"
        with pytest.raises(ValueError):
            validate_sweep_batching("maybe")
        with pytest.raises(ValueError):
            ExecutionParams(sweep_batching="sometimes")

    def test_resolution(self, small_instance, tiny_config):
        network, traffic = small_instance
        auto = _evaluator(network, traffic, tiny_config, "auto")
        off = _evaluator(network, traffic, tiny_config, "off")
        assert not off._use_sweep_batching(100)
        assert auto._use_sweep_batching(SWEEP_BATCH_MIN_SCENARIOS)
        assert not auto._use_sweep_batching(SWEEP_BATCH_MIN_SCENARIOS - 1)

    def test_default_resolves_on_and_requires_incremental(
        self, small_instance, tiny_config
    ):
        network, traffic = small_instance
        default = DtrEvaluator(network, traffic, tiny_config)
        assert default._use_sweep_batching(10)
        off = _evaluator(network, traffic, tiny_config, "off")
        assert not off._use_sweep_batching(10)
        # auto quietly falls back without the routers it rides on ...
        no_inc = _evaluator(
            network, traffic, tiny_config, "auto",
            incremental_routing=False,
        )
        assert not no_inc._use_sweep_batching(10)
        # ... and a forced python backend keeps its A/B isolation
        py = _evaluator(
            network, traffic, tiny_config, "auto",
            routing_backend="python",
        )
        assert not py._use_sweep_batching(10)


class TestSerialParity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_batched_equals_per_scenario_on_all_families(
        self, small_instance, tiny_config, seed
    ):
        network, traffic = small_instance
        scenarios = _mixed_scenarios(network, seed=seed)
        setting = WeightSetting.random(
            network.num_arcs,
            tiny_config.weights,
            np.random.default_rng(seed + 100),
        )
        legacy = _evaluator(network, traffic, tiny_config, "off")
        batched = _evaluator(network, traffic, tiny_config, "auto")
        reference = legacy.evaluate_scenarios(setting, scenarios)
        candidate = batched.evaluate_scenarios(setting, scenarios)
        assert_sweeps_identical(reference, candidate)
        assert legacy.num_evaluations == batched.num_evaluations

    def test_repeat_and_second_setting_stay_identical(
        self, small_instance, tiny_config
    ):
        """Warm memos/routers (second sweep, then a one-move-away
        setting) replay identical bits through the batch engine."""
        network, traffic = small_instance
        scenarios = _mixed_scenarios(network, seed=5)
        rng = np.random.default_rng(55)
        setting = WeightSetting.random(
            network.num_arcs, tiny_config.weights, rng
        )
        moved = setting.copy()
        moved.delay[3] = max(1, int(moved.delay[3]) - 1)
        legacy = _evaluator(network, traffic, tiny_config, "off")
        batched = _evaluator(network, traffic, tiny_config, "auto")
        for s in (setting, setting, moved):
            assert_sweeps_identical(
                legacy.evaluate_scenarios(s, scenarios),
                batched.evaluate_scenarios(s, scenarios),
            )

    def test_batch_sweeps_touch_no_memo_or_cache(
        self, small_instance, tiny_config
    ):
        """Batched sweeps on a ``make_evaluator`` evaluator (a caching
        one) are bit-identical to the serial evaluator and leave the
        routing cache, every router's propagation memo and the engine's
        delay memo as they were: a batch sweep prices each setting once,
        so those serve the per-scenario and move paths only."""
        network, traffic = small_instance
        failures = legacy_failures(network)
        assert len(failures) >= 2
        setting = WeightSetting.random(
            network.num_arcs,
            tiny_config.weights,
            np.random.default_rng(77),
        )
        reference = DtrEvaluator(network, traffic, tiny_config)
        expected = reference.evaluate_scenarios(setting, failures)
        caching = make_evaluator(
            network,
            traffic,
            tiny_config.replace(
                execution=ExecutionParams(routing_cache=True)
            ),
        )
        assert isinstance(caching, CachingDtrEvaluator)
        normal = caching.evaluate_normal(setting)

        def probes():
            return (
                caching.cache_stats.lookups,
                [r._memo.hits + r._memo.misses
                 for r in caching._routers.values()],
                list(caching.engine._delay_memo),
            )

        before = probes()
        sweep = caching.evaluate_scenarios(setting, failures, reuse=normal)
        costs = caching.evaluate_scenario_costs(
            setting, failures, reuse=normal
        )
        assert probes() == before
        assert_sweeps_identical(expected, sweep)
        assert costs.total_cost == expected.total_cost

    def test_duplicate_scenarios_share_one_evaluation(
        self, small_evaluator, random_setting
    ):
        scenarios = list(
            srlg_failures(
                small_evaluator.network, num_groups=2, group_size=2, seed=2
            )
        )
        doubled = scenarios + scenarios
        sweep = small_evaluator.evaluate_scenarios(random_setting, doubled)
        half = len(scenarios)
        for i in range(half):
            assert (
                sweep.evaluations[i].cost == sweep.evaluations[half + i].cost
            )
        assert small_evaluator.num_evaluations == len(doubled) + 1


@pytest.mark.parallel
class TestParallelParity:
    def test_process_shm_matches_serial(self, small_instance, tiny_config):
        network, traffic = small_instance
        scenarios = _mixed_scenarios(network, seed=1)
        setting = WeightSetting.random(
            network.num_arcs,
            tiny_config.weights,
            np.random.default_rng(11),
        )
        serial = _evaluator(network, traffic, tiny_config, "off")
        reference = serial.evaluate_scenarios(setting, scenarios)
        config = tiny_config.replace(
            execution=ExecutionParams(n_jobs=2, sweep_batching="auto")
        )
        with ParallelDtrEvaluator(network, traffic, config) as parallel:
            candidate = parallel.evaluate_scenarios(setting, scenarios)
            repeat = parallel.evaluate_scenarios(setting, scenarios)
            assert parallel.num_evaluations == 2 * len(scenarios) + 2
        assert_sweeps_identical(reference, candidate)
        assert_sweeps_identical(reference, repeat)

    @pytest.mark.parametrize(
        "n_jobs,chunk_size", [(2, None), (3, None), (2, 1), (2, 5)]
    )
    def test_invariant_to_jobs_and_chunks(
        self, small_instance, tiny_config, n_jobs, chunk_size
    ):
        network, traffic = small_instance
        scenarios = _mixed_scenarios(network, seed=3)
        setting = WeightSetting.random(
            network.num_arcs,
            tiny_config.weights,
            np.random.default_rng(13),
        )
        serial = _evaluator(network, traffic, tiny_config, "off")
        reference = serial.evaluate_scenarios(setting, scenarios)
        config = tiny_config.replace(
            execution=ExecutionParams(
                n_jobs=n_jobs,
                chunk_size=chunk_size,
                sweep_batching="auto",
            )
        )
        with ParallelDtrEvaluator(network, traffic, config) as parallel:
            candidate = parallel.evaluate_scenarios(setting, scenarios)
        assert_sweeps_identical(reference, candidate)

    @pytest.mark.parametrize(
        "knob",
        [{"sweep_batching": "off"}, {"routing_backend": "python"}],
        ids=["off", "python"],
    )
    def test_unbatched_sweeps_publish_once(
        self, small_instance, tiny_config, knob
    ):
        """Unbatched sweeps fan out on the same tickets as batched ones:
        one publish per host, about a hundred bytes per task."""
        network, traffic = small_instance
        failures = legacy_failures(network)
        setting = WeightSetting.random(
            network.num_arcs,
            tiny_config.weights,
            np.random.default_rng(14),
        )
        serial = DtrEvaluator(
            network, traffic,
            tiny_config.replace(execution=ExecutionParams(**knob)),
        )
        assert not serial._use_sweep_batching(len(failures))
        reference = serial.evaluate_scenarios(setting, failures)
        config = tiny_config.replace(
            execution=ExecutionParams(n_jobs=2, **knob)
        )
        with ParallelDtrEvaluator(network, traffic, config) as parallel:
            candidate = parallel.evaluate_scenarios(setting, failures)
            transport = parallel.transport_stats
            assert parallel.num_evaluations == serial.num_evaluations
            assert parallel.num_evaluations == len(failures) + 1
        assert_sweeps_identical(reference, candidate)
        assert transport.publishes == parallel.n_hosts == 2
        assert transport.tasks >= 2
        assert transport.bytes_per_task < 200
