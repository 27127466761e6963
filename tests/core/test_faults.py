"""Tests for the deterministic fault-injection registry.

These are pure unit tests: nothing here builds a pool or kills a
process.  The chaos integration tests that drive the whole supervised
sweep under injected faults live in ``tests/core/test_resilience.py``.
"""

import pytest

from repro.config import ExecutionParams
from repro.core.faults import (
    KNOWN_STAGES,
    FaultInjected,
    FaultPlan,
    StageFault,
    TaskDelay,
    WorkerKill,
    enter_task,
    exit_task,
    fault_point,
    install_fault_plan,
    installed_fault_plan,
)


class TestFaultSpecs:
    def test_kill_matches_task_and_attempt(self):
        fault = WorkerKill(task=3, attempts=(1, 3))
        assert fault.matches(3, 1)
        assert fault.matches(3, 3)
        assert not fault.matches(3, 2)
        assert not fault.matches(4, 1)

    def test_attempts_none_fires_every_attempt(self):
        fault = StageFault(stage="task", task=0, attempts=None)
        assert all(fault.matches("task", 0, k) for k in (1, 2, 7))

    def test_attempts_must_be_one_based(self):
        with pytest.raises(ValueError):
            WorkerKill(task=0, attempts=(0,))
        with pytest.raises(ValueError):
            TaskDelay(task=0, seconds=0.1, attempts=())

    def test_delay_rejects_negative_seconds(self):
        with pytest.raises(ValueError):
            TaskDelay(task=0, seconds=-1.0)

    def test_stage_must_be_known(self):
        with pytest.raises(ValueError):
            StageFault(stage="warp_core", task=0)
        for stage in KNOWN_STAGES:
            StageFault(stage=stage, task=0)

    def test_stage_fault_keys_on_stage_too(self):
        fault = StageFault(stage="route_batch", task=1)
        assert fault.matches("route_batch", 1, 1)
        assert not fault.matches("delay_flush", 1, 1)


class TestFaultPlan:
    def test_rejects_non_fault_entries(self):
        with pytest.raises(ValueError):
            FaultPlan(faults=("kill task 0",))

    def test_rides_in_execution_params(self):
        plan = FaultPlan(faults=(StageFault(stage="task", task=0),))
        execution = ExecutionParams(fault_plan=plan)
        assert execution.fault_plan is plan
        with pytest.raises(ValueError):
            ExecutionParams(fault_plan="not a plan")


class TestInjectionPoints:
    @pytest.fixture(autouse=True)
    def _clean_plan(self):
        """Never leak an installed plan into other tests."""
        yield
        install_fault_plan(None)
        exit_task()

    def test_fault_point_is_noop_without_plan(self):
        assert installed_fault_plan() is None
        fault_point("task")  # nothing installed: must not raise

    def test_fault_point_is_noop_outside_task_context(self):
        install_fault_plan(
            FaultPlan(faults=(StageFault(stage="route_batch", task=0),))
        )
        # parent-side evaluations run with no task context: clean
        fault_point("route_batch")

    def test_stage_fault_fires_in_matching_context(self):
        install_fault_plan(
            FaultPlan(
                faults=(StageFault(stage="route_batch", task=1),)
            )
        )
        enter_task(0, 1)  # wrong task: clean
        fault_point("route_batch")
        exit_task()
        enter_task(1, 1)
        with pytest.raises(FaultInjected):
            fault_point("route_batch")
        exit_task()

    def test_enter_task_fires_task_stage(self):
        install_fault_plan(
            FaultPlan(faults=(StageFault(stage="task", task=2),))
        )
        enter_task(0, 1)  # other tasks are untouched
        exit_task()
        with pytest.raises(FaultInjected):
            enter_task(2, 1)

    def test_attempt_filter_lets_retries_succeed(self):
        install_fault_plan(
            FaultPlan(faults=(StageFault(stage="task", task=0,
                                         attempts=(1,)),))
        )
        with pytest.raises(FaultInjected):
            enter_task(0, 1)
        exit_task()
        enter_task(0, 2)  # the retry runs clean
        exit_task()

    def test_sweep_hook_wired_and_cleared(self):
        import repro.routing.sweep as sweep

        install_fault_plan(
            FaultPlan(faults=(StageFault(stage="route_batch", task=0),))
        )
        assert sweep._FAULT_HOOK is not None
        install_fault_plan(None)
        assert sweep._FAULT_HOOK is None


class TestResilienceKnobValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            ExecutionParams(max_retries=-1)
        with pytest.raises(ValueError):
            ExecutionParams(retry_backoff=-0.1)
        with pytest.raises(ValueError):
            ExecutionParams(task_timeout=0.0)
        with pytest.raises(ValueError):
            ExecutionParams(sweep_deadline=-5.0)

    def test_task_timeout_within_sweep_deadline(self):
        with pytest.raises(ValueError):
            ExecutionParams(task_timeout=10.0, sweep_deadline=5.0)
        ExecutionParams(task_timeout=5.0, sweep_deadline=10.0)
