"""Tests for the parallel, cache-aware evaluation subsystem.

The contract under test is strict: every evaluator variant — serial,
caching, fanned out to sweep hosts — must produce *bit-identical*
results for the same inputs.  Parity assertions therefore use exact
equality, not approximate comparisons.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.config import ExecutionParams, OptimizerConfig
from repro.core.evaluation import DtrEvaluator
from repro.core.parallel import (
    CachingDtrEvaluator,
    ParallelDtrEvaluator,
    RoutingCache,
    make_evaluator,
)
from repro.core.weights import WeightSetting
from repro.routing.failures import NORMAL
from repro.scenarios import legacy_failures
from repro.topology.isp import isp_topology
from repro.traffic import dtr_traffic, scale_to_utilization


@pytest.fixture(scope="module")
def isp_instance():
    """The seeded 16-node / 70-arc ISP backbone with scaled traffic."""
    network = isp_topology()
    rng = np.random.default_rng(11)
    traffic = scale_to_utilization(
        network,
        dtr_traffic(network.num_nodes, rng, 1.0),
        0.43,
        "mean",
    )
    return network, traffic


@pytest.fixture(scope="module")
def isp_setting(isp_instance):
    network, _ = isp_instance
    return WeightSetting.random(
        network.num_arcs,
        OptimizerConfig().weights,
        np.random.default_rng(23),
    )


def _config(**execution_kwargs) -> OptimizerConfig:
    return OptimizerConfig().replace(
        execution=ExecutionParams(**execution_kwargs)
    )


def _cached(config: OptimizerConfig) -> OptimizerConfig:
    """``config`` with the (default-off) routing cache switched on."""
    return config.replace(
        execution=dataclasses.replace(config.execution, routing_cache=True)
    )


def _assert_bit_identical(reference, candidate):
    """Exact equality of two FailureEvaluations (costs, SLA, loads)."""
    assert len(reference) == len(candidate)
    assert reference.total_cost.lam == candidate.total_cost.lam
    assert reference.total_cost.phi == candidate.total_cost.phi
    for ref, got in zip(reference.evaluations, candidate.evaluations):
        assert ref.scenario == got.scenario
        assert ref.cost.lam == got.cost.lam
        assert ref.cost.phi == got.cost.phi
        assert ref.sla.violations == got.sla.violations
        assert ref.sla.disconnected == got.sla.disconnected
        assert np.array_equal(ref.loads_delay, got.loads_delay)
        assert np.array_equal(ref.loads_tput, got.loads_tput)
        assert np.array_equal(ref.utilization, got.utilization)


@pytest.mark.parallel
class TestProcessPoolParity:
    def test_sweep_matches_serial_bit_for_bit(
        self, isp_instance, isp_setting
    ):
        network, traffic = isp_instance
        failures = legacy_failures(network)
        serial = DtrEvaluator(network, traffic, OptimizerConfig())
        reference = serial.evaluate_scenarios(isp_setting, failures)
        with ParallelDtrEvaluator(
            network, traffic, _config(n_jobs=2)
        ) as parallel:
            candidate = parallel.evaluate_scenarios(isp_setting, failures)
        _assert_bit_identical(reference, candidate)

    def test_sweep_counts_evaluations(self, isp_instance, isp_setting):
        network, traffic = isp_instance
        failures = legacy_failures(network)
        with ParallelDtrEvaluator(
            network, traffic, _config(n_jobs=2)
        ) as parallel:
            parallel.evaluate_scenarios(isp_setting, failures)
            # the sweep plus the on-demand normal (reuse) evaluation
            assert parallel.num_evaluations == len(failures) + 1

    def test_normal_batch_matches_serial(self, isp_instance):
        network, traffic = isp_instance
        config = OptimizerConfig()
        settings = [
            WeightSetting.random(
                network.num_arcs, config.weights, np.random.default_rng(s)
            )
            for s in range(6)
        ]
        serial = DtrEvaluator(network, traffic, config)
        reference = serial.evaluate_normal_batch(settings)
        with ParallelDtrEvaluator(
            network, traffic, _config(n_jobs=2)
        ) as parallel:
            candidate = parallel.evaluate_normal_batch(settings)
        assert len(candidate) == len(settings)
        for ref, got in zip(reference, candidate):
            assert ref.cost.lam == got.cost.lam
            assert ref.cost.phi == got.cost.phi

    def test_worker_cache_stats_reported(self, isp_instance, isp_setting):
        network, traffic = isp_instance
        failures = legacy_failures(network)
        with ParallelDtrEvaluator(
            network, traffic, _config(n_jobs=2, routing_cache=True)
        ) as parallel:
            parallel.evaluate_scenarios(isp_setting, failures)
            first = parallel.cache_stats
            own = CachingDtrEvaluator.cache_stats.fget(parallel)
            parallel.evaluate_scenarios(isp_setting, failures)
            second = parallel.cache_stats
        # the hosts' lookups (their NORMAL reuse evaluations; batch
        # sweeps touch no cache) are added to the parent's own
        assert first.lookups > own.lookups > 0
        # the repeat sweep's NORMAL reuse evaluation hits the cache
        assert second.hits > first.hits


@pytest.mark.parallel
class TestCacheDisabled:
    def test_parallel_without_cache_stays_bit_identical(
        self, isp_instance, isp_setting
    ):
        network, traffic = isp_instance
        failures = legacy_failures(network)
        serial = DtrEvaluator(network, traffic, OptimizerConfig())
        reference = serial.evaluate_scenarios(isp_setting, failures)
        with ParallelDtrEvaluator(
            network, traffic, _config(n_jobs=2, routing_cache=False)
        ) as parallel:
            assert parallel.cache is None
            candidate = parallel.evaluate_scenarios(isp_setting, failures)
            stats = parallel.cache_stats
        _assert_bit_identical(reference, candidate)
        # routing_cache=False reaches the workers too: nothing cached
        assert stats.lookups == 0


@pytest.mark.parallel
@pytest.mark.slow
class TestOptimizerInvariance:
    def test_phase1_results_do_not_depend_on_n_jobs(
        self, small_instance, tiny_config
    ):
        """Seeded Phase 1 must produce the same result for any n_jobs."""
        from repro.core.phase1 import run_phase1

        network, traffic = small_instance
        serial = make_evaluator(
            network,
            traffic,
            tiny_config.replace(execution=ExecutionParams(n_jobs=1)),
        )
        reference = run_phase1(serial, np.random.default_rng(7))
        with ParallelDtrEvaluator(
            network,
            traffic,
            tiny_config.replace(execution=ExecutionParams(n_jobs=2)),
        ) as parallel:
            candidate = run_phase1(parallel, np.random.default_rng(7))
        assert reference.best_cost.lam == candidate.best_cost.lam
        assert reference.best_cost.phi == candidate.best_cost.phi
        assert reference.best_setting == candidate.best_setting
        assert (
            reference.selection.critical_arcs
            == candidate.selection.critical_arcs
        )
        assert (
            reference.store.total_samples == candidate.store.total_samples
        )

    def test_phase2_results_do_not_depend_on_n_jobs(
        self, small_instance, tiny_config
    ):
        """Seeded Phase 2 picks the same setting, with equal costs and
        every SearchStats counter equal, for any n_jobs.  Its move trials
        reuse the incumbent's per-scenario records, which must come from
        an in-process sweep: a fan-out sweep's hosts strip routings, and
        a stripped None read as the failed-arc shortcut's would hand the
        trials NORMAL routings for failed scenarios."""
        from repro.core.phase1 import run_phase1
        from repro.core.phase2 import RobustConstraints, run_phase2
        from repro.scenarios import node_failures

        network, traffic = small_instance
        serial = DtrEvaluator(network, traffic, tiny_config)
        phase1 = run_phase1(serial, np.random.default_rng(7))
        constraints = RobustConstraints(
            lam_star=phase1.best_cost.lam,
            phi_star=phase1.best_cost.phi,
            chi=tiny_config.sampling.chi,
        )
        failures = legacy_failures(network) + node_failures(network)
        reference = run_phase2(
            serial,
            failures,
            phase1.pool,
            constraints,
            np.random.default_rng(9),
        )
        with ParallelDtrEvaluator(
            network,
            traffic,
            tiny_config.replace(execution=ExecutionParams(n_jobs=2)),
        ) as parallel:
            candidate = run_phase2(
                parallel,
                failures,
                phase1.pool,
                constraints,
                np.random.default_rng(9),
            )
        assert candidate.best_setting == reference.best_setting
        assert candidate.best_kfail.lam == reference.best_kfail.lam
        assert candidate.best_kfail.phi == reference.best_kfail.phi
        assert candidate.stats == reference.stats
        assert reference.stats.verbatim_evaluations > 0


class TestRoutingCache:
    def test_exact_hit_on_repeat(self, small_evaluator, random_setting):
        caching = CachingDtrEvaluator(
            small_evaluator.network,
            small_evaluator.traffic,
            _cached(small_evaluator.config),
        )
        caching.evaluate_normal(random_setting)
        assert caching.cache_stats.misses == 2  # one per class
        caching.evaluate_normal(random_setting)
        assert caching.cache_stats.hits_exact == 2

    def test_weight_increase_on_unused_arc_reuses_routing(
        self, small_evaluator, random_setting
    ):
        config = small_evaluator.config
        caching = CachingDtrEvaluator(
            small_evaluator.network, small_evaluator.traffic, _cached(config)
        )
        normal = caching.evaluate_normal(random_setting)
        unused = ~normal.routing_delay.used_arcs()
        if not unused.any():
            pytest.skip("random setting uses every arc for the delay class")
        arc = int(np.flatnonzero(unused)[0])
        moved = random_setting.copy()
        moved.delay[arc] = config.weights.w_max  # heavier, never used
        before = caching.cache_stats
        outcome = caching.evaluate(moved, NORMAL)
        after = caching.cache_stats
        assert after.hits_incremental == before.hits_incremental + 1
        # and the shortcut is exact: a fresh serial evaluation agrees
        fresh = DtrEvaluator(
            small_evaluator.network, small_evaluator.traffic, config
        ).evaluate(moved, NORMAL)
        assert outcome.cost.lam == fresh.cost.lam
        assert outcome.cost.phi == fresh.cost.phi
        assert np.array_equal(outcome.loads_delay, fresh.loads_delay)

    def test_weight_decrease_never_reuses(
        self, small_evaluator, random_setting
    ):
        config = small_evaluator.config
        caching = CachingDtrEvaluator(
            small_evaluator.network, small_evaluator.traffic, _cached(config)
        )
        caching.evaluate_normal(random_setting)
        arc = 0
        moved = random_setting.copy()
        moved.delay[arc] = max(1, int(moved.delay[arc]) - 1)
        before = caching.cache_stats
        outcome = caching.evaluate(moved, NORMAL)
        after = caching.cache_stats
        # a decrease can create new shortest paths: must re-route
        assert after.hits_incremental == before.hits_incremental
        fresh = DtrEvaluator(
            small_evaluator.network, small_evaluator.traffic, config
        ).evaluate(moved, NORMAL)
        assert outcome.cost.lam == fresh.cost.lam
        assert outcome.cost.phi == fresh.cost.phi

    def test_single_arc_move_parity_sweep(self, small_evaluator, rng):
        """Random single-arc moves: cached evaluator == fresh serial."""
        config = small_evaluator.config
        network = small_evaluator.network
        caching = CachingDtrEvaluator(
            network, small_evaluator.traffic, _cached(config)
        )
        serial = DtrEvaluator(network, small_evaluator.traffic, config)
        setting = WeightSetting.random(
            network.num_arcs, config.weights, rng
        )
        for _ in range(25):
            arc = int(rng.integers(0, network.num_arcs))
            setting.delay[arc] = int(
                rng.integers(config.weights.w_min, config.weights.w_max + 1)
            )
            cached = caching.evaluate_normal(setting)
            fresh = serial.evaluate_normal(setting)
            assert cached.cost.lam == fresh.cost.lam
            assert cached.cost.phi == fresh.cost.phi
            assert np.array_equal(cached.loads_delay, fresh.loads_delay)
            assert np.array_equal(cached.loads_tput, fresh.loads_tput)
        assert caching.cache_stats.hits > 0

    def test_lru_eviction_bounds_entries(self):
        cache = RoutingCache(max_entries=1)
        assert len(cache) == 0
        with pytest.raises(ValueError):
            RoutingCache(max_entries=0)


class TestPickling:
    def test_scenario_evaluation_roundtrip(
        self, small_evaluator, random_setting
    ):
        outcome = small_evaluator.evaluate_normal(random_setting)
        clone = pickle.loads(pickle.dumps(outcome))
        assert clone.cost.lam == outcome.cost.lam
        assert clone.cost.phi == outcome.cost.phi
        assert clone.scenario == outcome.scenario
        assert clone.sla.violations == outcome.sla.violations
        assert np.array_equal(clone.loads_delay, outcome.loads_delay)
        assert np.array_equal(
            clone.pair_delays, outcome.pair_delays, equal_nan=True
        )
        # the Network back-reference is dropped on serialization ...
        assert clone.routing_delay.network is None
        assert clone.routing_tput.network is None
        # ... and can be lazily rebuilt
        rebound = clone.routing_delay.bind(small_evaluator.network)
        assert rebound.network is small_evaluator.network
        assert np.array_equal(rebound.masks, outcome.routing_delay.masks)

    def test_roundtrip_payload_excludes_network(
        self, small_evaluator, random_setting
    ):
        outcome = small_evaluator.evaluate_normal(random_setting)
        payload = pickle.dumps(outcome)
        with_network = pickle.dumps(
            outcome.routing_delay.bind(small_evaluator.network).network
        )
        # the evaluation (two routings included) must stay well below the
        # cost of shipping the topology itself alongside every scenario
        assert len(payload) < 4 * len(with_network)


class TestMakeEvaluator:
    def test_dispatch(self, small_instance):
        network, traffic = small_instance
        serial = make_evaluator(
            network, traffic, _config(n_jobs=1, routing_cache=False)
        )
        assert type(serial) is DtrEvaluator
        cached = make_evaluator(
            network, traffic, _config(n_jobs=1, routing_cache=True)
        )
        assert type(cached) is CachingDtrEvaluator
        parallel = make_evaluator(network, traffic, _config(n_jobs=2))
        assert type(parallel) is ParallelDtrEvaluator
        parallel.close()
        # an endpoint spec alone selects the same evaluator (the pool is
        # built lazily, so nothing connects here)
        hosts = make_evaluator(
            network, traffic, _config(hosts="127.0.0.1:7777")
        )
        assert type(hosts) is ParallelDtrEvaluator
        hosts.close()

    def test_with_traffic_preserves_type(self, small_instance):
        network, traffic = small_instance
        cached = make_evaluator(
            network, traffic, _config(n_jobs=1, routing_cache=True)
        )
        sibling = cached.with_traffic(traffic.scaled(2.0))
        assert type(sibling) is CachingDtrEvaluator

    def test_execution_params_validation(self):
        with pytest.raises(ValueError):
            ExecutionParams(n_jobs=-1)
        with pytest.raises(ValueError):
            ExecutionParams(chunk_size=0)
        # hosts selects the executor and the cache capacity is fixed:
        # neither knob exists any more
        with pytest.raises(TypeError):
            ExecutionParams(executor="process")
        with pytest.raises(TypeError):
            ExecutionParams(cache_size=8)
        assert ExecutionParams(n_jobs=0).resolved_jobs >= 1


def _host_pids(evaluator) -> "list[int]":
    """Process ids of the evaluator's live local sweep hosts."""
    return [
        client.process.pid
        for client in evaluator._executor.pool.clients
        if client.process is not None
    ]


# ----------------------------------------------------------------------
# pool-crash recovery: real host deaths, not injected ones
# ----------------------------------------------------------------------
@pytest.mark.parallel
class TestPoolFailureRecovery:
    """SIGKILL a live local host out from under the evaluator.

    The fault-harness chaos tests (``test_resilience.py``) kill hosts
    from the inside; these kill them from the outside — the parent
    delivers SIGKILL to a host pid — so the recovery path is exercised
    against a genuine, unannounced process death too.
    """

    def test_sigkill_worker_mid_lifecycle_recovers_bit_identical(
        self, isp_instance, isp_setting
    ):
        import os
        import signal

        network, traffic = isp_instance
        failures = legacy_failures(network)
        serial = DtrEvaluator(network, traffic, OptimizerConfig())
        reference = serial.evaluate_scenarios(isp_setting, failures)
        with ParallelDtrEvaluator(
            network, traffic, _config(n_jobs=2, retry_backoff=0.0)
        ) as parallel:
            first = parallel.evaluate_scenarios(isp_setting, failures)
            victims = _host_pids(parallel)
            assert len(victims) == 2  # the warm sweep's hosts
            os.kill(victims[0], signal.SIGKILL)
            candidate = parallel.evaluate_scenarios(isp_setting, failures)
            stats = parallel.resilience_stats
        _assert_bit_identical(reference, first)
        _assert_bit_identical(reference, candidate)
        assert stats.host_failures >= 1
        assert stats.pool_rebuilds >= 1
        assert stats.host_respawns >= 1
        assert stats.quarantined_tasks == 0

    def test_close_tolerates_broken_pool(self, isp_instance, isp_setting):
        import os
        import signal

        network, traffic = isp_instance
        failures = legacy_failures(network)
        parallel = ParallelDtrEvaluator(
            network, traffic, _config(n_jobs=2)
        )
        parallel.evaluate_scenarios(isp_setting, failures)
        for pid in _host_pids(parallel):
            os.kill(pid, signal.SIGKILL)
        parallel.close()  # must not raise on the broken pool
        parallel.close()  # and stays idempotent
