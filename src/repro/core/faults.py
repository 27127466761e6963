"""Deterministic fault injection for chaos-testing the sweep executor.

Testing the resilience layer (:mod:`repro.core.resilience`) against
*real* worker deaths, stalls and raises is only useful if every chaos
run is reproducible bit-for-bit.  This module provides that
determinism: a :class:`FaultPlan` names exactly which faults fire and
when, keyed on the **task sequence number** the parent assigns to every
dispatched ticket (deterministic by construction — it depends on chunk
order, never on scheduling) and the **attempt number** of the dispatch
(1-based; retries re-dispatch with the next attempt).  Two runs with
the same plan, seed and inputs inject the identical faults at the
identical points, so the chaos tests in ``tests/core/test_resilience.py``
and the CI chaos-smoke job can pin exact invariants ("results bitwise
identical to the fault-free run") instead of flaky approximations.

Fault kinds:

* :class:`WorkerKill` — the worker executing the matching task delivers
  ``SIGKILL`` to itself before computing anything: a genuine, unclean
  worker death (the pool breaks exactly as it would under the OOM
  killer).
* :class:`TaskDelay` — the worker sleeps before computing, long enough
  to trip a configured per-task timeout.
* :class:`StageFault` — the worker raises :class:`FaultInjected` at a
  named stage: ``"task"`` fires before the task body, the batch-engine
  stages (``"route_batch"``, ``"delay_flush"``) fire inside
  :mod:`repro.routing.sweep` through a zero-overhead hook.

Plans are installed **worker-side only** (the pool initializer calls
:func:`install_fault_plan`): the parent process never injects, so the
supervisor's serial in-process fallback always computes clean results.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass

#: Stage names with injection points wired in (``"task"`` fires in the
#: dispatch wrapper; the rest inside the batch sweep engine).
KNOWN_STAGES = ("task", "route_batch", "delay_flush")


class FaultInjected(RuntimeError):
    """An injected failure fired (never raised outside chaos runs)."""


def _normalize_attempts(
    attempts: "tuple[int, ...] | list[int] | None",
) -> "tuple[int, ...] | None":
    """Validate the 1-based attempt filter (None = every attempt)."""
    if attempts is None:
        return None
    attempts = tuple(int(a) for a in attempts)
    if not attempts or any(a < 1 for a in attempts):
        raise ValueError("attempts must be 1-based positive integers")
    return attempts


@dataclass(frozen=True)
class WorkerKill:
    """SIGKILL the worker before it computes the matching task.

    Attributes:
        task: task sequence number the fault keys on.
        attempts: attempt numbers (1-based) that fire; None fires on
            every attempt (a persistent pool killer — the supervisor
            must quarantine the task to complete the sweep).
    """

    task: int
    attempts: "tuple[int, ...] | None" = (1,)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "attempts", _normalize_attempts(self.attempts)
        )

    def matches(self, task: int, attempt: int) -> bool:
        """Whether this fault fires for (task, attempt)."""
        return self.task == task and (
            self.attempts is None or attempt in self.attempts
        )


@dataclass(frozen=True)
class TaskDelay:
    """Sleep before computing the matching task (trips task timeouts).

    Attributes:
        task: task sequence number the fault keys on.
        seconds: how long the worker stalls.
        attempts: attempt numbers (1-based) that fire; None = always.
    """

    task: int
    seconds: float
    attempts: "tuple[int, ...] | None" = (1,)

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError("seconds must be non-negative")
        object.__setattr__(
            self, "attempts", _normalize_attempts(self.attempts)
        )

    def matches(self, task: int, attempt: int) -> bool:
        """Whether this fault fires for (task, attempt)."""
        return self.task == task and (
            self.attempts is None or attempt in self.attempts
        )


@dataclass(frozen=True)
class StageFault:
    """Raise :class:`FaultInjected` at a named stage of a task.

    Attributes:
        stage: injection point (see :data:`KNOWN_STAGES`).
        task: task sequence number the fault keys on.
        attempts: attempt numbers (1-based) that fire; None = always
            (a *poison task* — it fails every retry, so the supervisor
            must degrade it to the serial path).
    """

    stage: str
    task: int
    attempts: "tuple[int, ...] | None" = (1,)

    def __post_init__(self) -> None:
        if self.stage not in KNOWN_STAGES:
            raise ValueError(
                f"unknown fault stage {self.stage!r}; "
                f"choose from {', '.join(KNOWN_STAGES)}"
            )
        object.__setattr__(
            self, "attempts", _normalize_attempts(self.attempts)
        )

    def matches(self, stage: str, task: int, attempt: int) -> bool:
        """Whether this fault fires for (stage, task, attempt)."""
        return (
            self.stage == stage
            and self.task == task
            and (self.attempts is None or attempt in self.attempts)
        )


_FAULT_KINDS = {
    "kill": WorkerKill,
    "delay": TaskDelay,
    "stage": StageFault,
}


@dataclass(frozen=True)
class FaultPlan:
    """One reproducible chaos schedule: which faults fire, and when.

    Frozen (hashable, deterministic ``repr``) so it can ride inside
    :class:`~repro.config.ExecutionParams` and ship to workers through
    the pool initializer like every other execution knob.

    Attributes:
        faults: the fault specs, in declaration order.
        seed: the seed of the run the plan belongs to (recorded so two
            chaos runs' plans differ in identity when their seeds do).
    """

    faults: "tuple[WorkerKill | TaskDelay | StageFault, ...]" = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        for fault in self.faults:
            if not isinstance(fault, tuple(_FAULT_KINDS.values())):
                raise ValueError(f"not a fault spec: {fault!r}")

    def __len__(self) -> int:
        return len(self.faults)


# ----------------------------------------------------------------------
# per-process installation and the injection points
# ----------------------------------------------------------------------
#: The plan installed in *this* process (workers only; the parent never
#: installs one, so serial fallback evaluations are always clean).
_PLAN: FaultPlan | None = None

#: The task the current thread of execution is inside: (seq, attempt).
_CONTEXT: "tuple[int, int] | None" = None


def install_fault_plan(plan: FaultPlan | None) -> None:
    """Install (or clear, with None) this process's fault plan.

    Also wires the batch sweep engine's fault hook
    (:func:`repro.routing.sweep.set_fault_hook`) so stage faults fire
    inside the kernels with zero overhead when no plan is installed.
    """
    global _PLAN
    _PLAN = plan
    from repro.routing.sweep import set_fault_hook

    set_fault_hook(fault_point if plan is not None else None)


def installed_fault_plan() -> FaultPlan | None:
    """The plan active in this process, or None."""
    return _PLAN


def enter_task(task: int, attempt: int) -> None:
    """Mark task entry and fire kill/delay/``"task"``-stage faults.

    Called by the dispatch wrapper in the worker before the task body;
    must be paired with :func:`exit_task`.
    """
    global _CONTEXT
    _CONTEXT = (task, attempt)
    plan = _PLAN
    if plan is None:
        return
    for fault in plan.faults:
        if isinstance(fault, WorkerKill) and fault.matches(task, attempt):
            # A genuine unclean death: no cleanup, no exit handlers —
            # exactly what the OOM killer or a segfault looks like.
            os.kill(os.getpid(), signal.SIGKILL)
        if isinstance(fault, TaskDelay) and fault.matches(task, attempt):
            time.sleep(fault.seconds)
    fault_point("task")


def exit_task() -> None:
    """Clear the task context set by :func:`enter_task`."""
    global _CONTEXT
    _CONTEXT = None


def fault_point(stage: str) -> None:
    """Raise :class:`FaultInjected` if a stage fault matches here.

    A no-op unless a plan is installed *and* the current thread is
    inside a task context (so parent-side evaluations never inject).
    """
    plan, context = _PLAN, _CONTEXT
    if plan is None or context is None:
        return
    task, attempt = context
    for fault in plan.faults:
        if isinstance(fault, StageFault) and fault.matches(
            stage, task, attempt
        ):
            raise FaultInjected(
                f"injected fault at stage {stage!r} "
                f"(task {task}, attempt {attempt})"
            )
