"""Chaos tests for the supervised sweep-host executor.

Every test here pins the same invariant from a different failure mode:
a sweep run under injected faults — host SIGKILL, poison tasks, task
timeouts, exhausted sweep deadlines — must **complete with results
bit-identical to a fault-free serial run**, with the damage visible in
``resilience_stats`` and no host process or socket left behind.

Fault plans come from :mod:`repro.core.faults`, keyed on deterministic
task sequence numbers, so every chaos run here is reproducible.
"""

import multiprocessing

import numpy as np
import pytest

from repro.config import ExecutionParams, OptimizerConfig
from repro.core.checkpoint import execution_fingerprint
from repro.core.evaluation import DtrEvaluator
from repro.core.faults import FaultPlan, StageFault, TaskDelay, WorkerKill
from repro.core.parallel import ParallelDtrEvaluator
from repro.core.resilience import (
    FAILURE_DEAD_POOL,
    FAILURE_TASK_ERROR,
    FAILURE_TIMEOUT,
    ResilienceStats,
    RetryPolicy,
    classify_failure,
    global_stats,
)
from repro.core.weights import WeightSetting
from repro.routing.failures import single_link_failures
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


@pytest.fixture(scope="module")
def reference_sweep(isp_instance, isp_setting):
    """The fault-free serial sweep every chaos run must reproduce."""
    network, traffic = isp_instance
    serial = DtrEvaluator(network, traffic, OptimizerConfig())
    return serial.evaluate_failures(
        isp_setting, single_link_failures(network)
    )


def _config(**execution_kwargs) -> OptimizerConfig:
    return OptimizerConfig().replace(
        execution=ExecutionParams(**execution_kwargs)
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


def _assert_hosts_released(pool):
    """After close(): every host socket closed, no host process alive."""
    for client in pool.clients if pool is not None else ():
        assert client.closed, client.describe()
        assert client.process is None
    assert not multiprocessing.active_children()


class TestClassifyFailure:
    def test_classes(self):
        import concurrent.futures
        from concurrent.futures.process import BrokenProcessPool

        assert classify_failure(BrokenProcessPool()) == FAILURE_DEAD_POOL
        assert (
            classify_failure(concurrent.futures.TimeoutError())
            == FAILURE_TIMEOUT
        )
        assert classify_failure(TimeoutError()) == FAILURE_TIMEOUT
        assert classify_failure(ValueError("boom")) == FAILURE_TASK_ERROR


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_capped(self):
        policy = RetryPolicy(backoff=0.1, max_backoff=0.4)
        a = [
            policy.backoff_seconds(k, np.random.default_rng(0))
            for k in (1, 2, 3, 6)
        ]
        b = [
            policy.backoff_seconds(k, np.random.default_rng(0))
            for k in (1, 2, 3, 6)
        ]
        assert a == b
        assert all(0.0 < s <= 0.4 for s in a)
        assert a[-1] == 0.4  # deep retries saturate at the cap

    def test_zero_backoff_never_sleeps(self):
        policy = RetryPolicy(backoff=0.0)
        assert policy.backoff_seconds(3, np.random.default_rng(0)) == 0.0

    def test_from_execution(self):
        execution = ExecutionParams(
            max_retries=5,
            retry_backoff=0.2,
            task_timeout=3.0,
            sweep_deadline=30.0,
        )
        policy = RetryPolicy.from_execution(execution)
        assert policy.max_attempts == 6
        assert policy.task_timeout == 3.0
        assert policy.sweep_deadline == 30.0


class TestResilienceStats:
    def test_add_and_dict(self):
        a = ResilienceStats(worker_failures=1, retries=2)
        b = ResilienceStats(worker_failures=1, quarantined_tasks=1)
        total = a + b
        assert total.worker_failures == 2
        assert total.retries == 2
        assert total.total_failures == 2
        assert total.degraded
        assert not a.degraded
        assert total.as_dict()["quarantined_tasks"] == 1


@pytest.mark.parallel
class TestChaosParity:
    """Injected faults: the sweep completes bit-identical regardless."""

    def test_worker_kill_recovers_bit_identical(
        self, isp_instance, isp_setting, reference_sweep
    ):
        network, traffic = isp_instance
        failures = single_link_failures(network)
        plan = FaultPlan(faults=(WorkerKill(task=0),))
        with ParallelDtrEvaluator(
            network, traffic, _config(n_jobs=2, fault_plan=plan)
        ) as parallel:
            candidate = parallel.evaluate_failures(isp_setting, failures)
            stats = parallel.resilience_stats
            pool = parallel._executor.pool
            assert parallel.num_evaluations == len(failures) + 1
            # the next sweep on the rebuilt pool is healthy too
            again = parallel.evaluate_failures(isp_setting, failures)
        _assert_bit_identical(reference_sweep, candidate)
        _assert_bit_identical(reference_sweep, again)
        _assert_hosts_released(pool)
        assert stats.worker_failures >= 1
        assert stats.retries >= 1
        assert stats.pool_rebuilds >= 1
        # the retry succeeded: nothing was degraded to serial
        assert stats.quarantined_tasks == 0
        assert not stats.degraded

    def test_poison_task_is_quarantined(
        self, isp_instance, isp_setting, reference_sweep
    ):
        network, traffic = isp_instance
        failures = single_link_failures(network)
        # attempts=None: the fault fires on *every* retry of task 0
        plan = FaultPlan(
            faults=(StageFault(stage="task", task=0, attempts=None),)
        )
        with ParallelDtrEvaluator(
            network,
            traffic,
            _config(
                n_jobs=2, fault_plan=plan, max_retries=1, retry_backoff=0.0
            ),
        ) as parallel:
            candidate = parallel.evaluate_failures(isp_setting, failures)
            stats = parallel.resilience_stats
            pool = parallel._executor.pool
            assert parallel.num_evaluations == len(failures) + 1
        _assert_bit_identical(reference_sweep, candidate)
        _assert_hosts_released(pool)
        assert stats.task_failures == 2  # initial attempt + one retry
        assert stats.retries == 1
        assert stats.quarantined_tasks == 1
        assert stats.degraded

    def test_stage_fault_inside_batch_engine_retries_clean(
        self, isp_instance, isp_setting, reference_sweep
    ):
        network, traffic = isp_instance
        failures = single_link_failures(network)
        plan = FaultPlan(
            faults=(StageFault(stage="route_batch", task=1),)
        )
        with ParallelDtrEvaluator(
            network,
            traffic,
            _config(n_jobs=2, fault_plan=plan, retry_backoff=0.0),
        ) as parallel:
            candidate = parallel.evaluate_failures(isp_setting, failures)
            stats = parallel.resilience_stats
            pool = parallel._executor.pool
        _assert_bit_identical(reference_sweep, candidate)
        _assert_hosts_released(pool)
        assert stats.task_failures == 1
        assert stats.retries == 1
        assert stats.quarantined_tasks == 0

    def test_per_scenario_shm_tickets_recover_too(
        self, isp_instance, isp_setting, reference_sweep
    ):
        """Chaos parity holds for hosts sweeping per scenario
        (sweep_batching='off')."""
        network, traffic = isp_instance
        failures = single_link_failures(network)
        plan = FaultPlan(
            faults=(StageFault(stage="task", task=0, attempts=None),)
        )
        with ParallelDtrEvaluator(
            network,
            traffic,
            _config(
                n_jobs=2,
                sweep_batching="off",
                fault_plan=plan,
                max_retries=1,
                retry_backoff=0.0,
            ),
        ) as parallel:
            candidate = parallel.evaluate_failures(isp_setting, failures)
            stats = parallel.resilience_stats
            assert parallel.num_evaluations == len(failures) + 1
        _assert_bit_identical(reference_sweep, candidate)
        assert stats.quarantined_tasks == 1

    @pytest.mark.slow
    def test_task_timeout_recycles_wedged_worker(
        self, isp_instance, isp_setting, reference_sweep
    ):
        network, traffic = isp_instance
        failures = single_link_failures(network)
        plan = FaultPlan(faults=(TaskDelay(task=0, seconds=3.0),))
        with ParallelDtrEvaluator(
            network,
            traffic,
            _config(
                n_jobs=2,
                fault_plan=plan,
                task_timeout=0.75,
                retry_backoff=0.0,
            ),
        ) as parallel:
            candidate = parallel.evaluate_failures(isp_setting, failures)
            stats = parallel.resilience_stats
            pool = parallel._executor.pool
        _assert_bit_identical(reference_sweep, candidate)
        _assert_hosts_released(pool)
        assert stats.timeouts >= 1
        assert stats.retries >= 1
        assert stats.pool_rebuilds >= 1
        # the host still holding the stalled ticket was retired and
        # respawned, not left wedged in the pool
        assert stats.host_respawns >= 1
        assert stats.quarantined_tasks == 0

    def test_sweep_deadline_degrades_remainder_serially(
        self, isp_instance, isp_setting, reference_sweep
    ):
        network, traffic = isp_instance
        failures = single_link_failures(network)
        with ParallelDtrEvaluator(
            network, traffic, _config(n_jobs=2, sweep_deadline=1e-9)
        ) as parallel:
            candidate = parallel.evaluate_failures(isp_setting, failures)
            stats = parallel.resilience_stats
            pool = parallel._executor.pool
            assert parallel.num_evaluations == len(failures) + 1
        _assert_bit_identical(reference_sweep, candidate)
        _assert_hosts_released(pool)
        # every ticket ran on the parent's serial path
        assert stats.deadline_degraded_tasks > 0
        assert stats.degraded
        assert stats.retries == 0

    def test_global_stats_mirror_chaos_events(
        self, isp_instance, isp_setting
    ):
        network, traffic = isp_instance
        failures = single_link_failures(network)
        plan = FaultPlan(
            faults=(StageFault(stage="task", task=0, attempts=(1,)),)
        )
        before = global_stats()
        with ParallelDtrEvaluator(
            network,
            traffic,
            _config(n_jobs=2, fault_plan=plan, retry_backoff=0.0),
        ) as parallel:
            parallel.evaluate_failures(isp_setting, failures)
            local = parallel.resilience_stats
        after = global_stats()
        assert local.task_failures == 1
        assert after.task_failures - before.task_failures == 1
        assert after.retries - before.retries == 1


@pytest.mark.parallel
class TestCheckpointFingerprint:
    """Crashed runs may resume with different retry knobs: the
    execution fingerprint must ignore every resilience knob."""

    def test_fingerprint_invariant_to_resilience_knobs(self):
        base = execution_fingerprint(ExecutionParams(n_jobs=2))
        retuned = execution_fingerprint(
            ExecutionParams(
                n_jobs=2,
                max_retries=9,
                retry_backoff=1.5,
                task_timeout=10.0,
                sweep_deadline=600.0,
                fault_plan=FaultPlan(
                    faults=(WorkerKill(task=0),), seed=3
                ),
            )
        )
        assert base == retuned

    def test_fingerprint_still_sees_execution_shape(self):
        base = execution_fingerprint(ExecutionParams(n_jobs=2))
        assert base != execution_fingerprint(ExecutionParams(n_jobs=3))
        assert base != execution_fingerprint(
            ExecutionParams(n_jobs=2, sweep_batching="off")
        )
