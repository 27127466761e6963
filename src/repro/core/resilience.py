"""Supervision, retry and degradation policy for fan-out sweeps.

:class:`~repro.core.parallel.ParallelDtrEvaluator` fans a sweep out to
sweep hosts (:mod:`repro.core.distributed`) as cheap tickets.  Hosts
die, wedge and raise; the :class:`SweepSupervisor` here wraps dispatch
so a sweep **always completes with results bit-identical to a
fault-free run**:

* Failures are classified (:func:`classify_failure`) as ``dead_pool``
  (a host died or dropped its connection — ``HostLost`` is a
  ``BrokenExecutor``), ``timeout`` (a ticket exceeded its per-task
  deadline; the pool is recycled, which retires the wedged host), or
  ``task_error`` (the host raised — possibly a poison task).
* Transient failures are retried with exponential backoff and
  deterministic jitter (:class:`RetryPolicy`), recycling the pool —
  dead hosts respawn or reconnect — and re-dispatching **only the
  unfinished tickets**.
* A task that exhausts ``max_attempts`` is quarantined: its ticket is
  computed on the parent's serial in-process path, which shares no
  state with the hosts and is pinned bit-identical to a dispatched
  ticket.
* A sweep that exhausts its overall deadline degrades the whole
  remainder to serial and reports it.

Everything the supervisor does is counted in ``cache_stats``-style
:class:`ResilienceStats`, exposed per-evaluator
(``evaluator.resilience_stats``) and process-wide
(:func:`global_stats`, consumed by ``repro-exp``'s exit-code taxonomy
and the BENCH schema context).  Backoff sleeps draw jitter from a
generator seeded per supervised sweep, so retry schedules — like
everything else in this repo — are deterministic.
"""

from __future__ import annotations

import concurrent.futures
import threading
import time
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import ExecutionParams

#: Failure classes (`classify_failure` return values).
FAILURE_DEAD_POOL = "dead_pool"
FAILURE_TIMEOUT = "timeout"
FAILURE_TASK_ERROR = "task_error"


def classify_failure(exc: BaseException) -> str:
    """Classify a task failure for the retry/degradation decision.

    ``dead_pool``: the executor is unusable (every in-flight task is
    charged an attempt and re-dispatched on a fresh pool).
    ``timeout``: the task outlived its per-task deadline (the pool may
    hold a wedged worker, so it is recycled too).
    ``task_error``: the worker raised; only the failing task retries.
    """
    if isinstance(exc, BrokenExecutor):
        return FAILURE_DEAD_POOL
    if isinstance(exc, (concurrent.futures.TimeoutError, TimeoutError)):
        return FAILURE_TIMEOUT
    return FAILURE_TASK_ERROR


@dataclass(frozen=True)
class RetryPolicy:
    """Retry budget and deadlines for one supervised sweep.

    Attributes:
        max_retries: extra dispatch attempts per task beyond the first
            (0 disables retries: first failure quarantines).
        backoff: base backoff in seconds; attempt ``k`` sleeps
            ``backoff * 2**(k-1)`` scaled by jitter in ``[0.5, 1.0)``,
            capped at :attr:`max_backoff`.
        task_timeout: per-task deadline in seconds (None = no limit).
        sweep_deadline: whole-sweep deadline in seconds (None = no
            limit); once exhausted, the remainder runs serially.
        seed: seed for the jitter generator, so backoff schedules are
            reproducible.
    """

    max_retries: int = 2
    backoff: float = 0.05
    task_timeout: "float | None" = None
    sweep_deadline: "float | None" = None
    seed: int = 0
    max_backoff: float = 2.0

    @property
    def max_attempts(self) -> int:
        """Total dispatch attempts allowed per task (>= 1)."""
        return self.max_retries + 1

    @classmethod
    def from_execution(cls, execution: "ExecutionParams") -> "RetryPolicy":
        """Build the policy an evaluator should run under."""
        return cls(
            max_retries=execution.max_retries,
            backoff=execution.retry_backoff,
            task_timeout=execution.task_timeout,
            sweep_deadline=execution.sweep_deadline,
        )

    def backoff_seconds(self, attempt: int, rng: np.random.Generator) -> float:
        """Deterministic-jitter backoff before dispatch ``attempt + 1``."""
        if self.backoff <= 0.0:
            return 0.0
        raw = self.backoff * (2.0 ** (attempt - 1))
        jitter = 0.5 + 0.5 * float(rng.random())
        return min(raw * jitter, self.max_backoff)


@dataclass(frozen=True)
class ResilienceStats:
    """Failure/retry/degradation counters (``cache_stats`` style).

    Attributes:
        worker_failures: tasks whose failure was classified
            ``dead_pool`` (a worker or the pool itself died).
        task_failures: tasks whose worker raised (``task_error``).
        timeouts: tasks that exceeded the per-task deadline.
        retries: re-dispatches after any failure class.
        pool_rebuilds: times the supervisor discarded and rebuilt the
            pool (dead or suspect).
        quarantined_tasks: tickets degraded to the serial path after
            exhausting ``max_attempts``.
        deadline_degraded_tasks: tickets degraded to the serial path
            because the sweep deadline ran out.
        host_failures: sweep hosts that died, dropped their connection
            or were retired as wedged mid-sweep.
        host_respawns: dead hosts successfully respawned (local hosts)
            or reconnected (TCP hosts) by pool recycling.
    """

    worker_failures: int = 0
    task_failures: int = 0
    timeouts: int = 0
    retries: int = 0
    pool_rebuilds: int = 0
    quarantined_tasks: int = 0
    deadline_degraded_tasks: int = 0
    host_failures: int = 0
    host_respawns: int = 0

    @property
    def total_failures(self) -> int:
        """All task-attempt failures, regardless of class."""
        return self.worker_failures + self.task_failures + self.timeouts

    @property
    def degraded(self) -> bool:
        """Whether any ticket fell back to the serial path."""
        return bool(self.quarantined_tasks or self.deadline_degraded_tasks)

    def __add__(self, other: "ResilienceStats") -> "ResilienceStats":
        return ResilienceStats(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            }
        )

    def as_dict(self) -> "dict[str, int]":
        """Plain-dict form for BENCH context / experiment metadata."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class ResilienceCounters:
    """Mutable, thread-safe accumulator behind :class:`ResilienceStats`.

    Each evaluator owns one; increments mirror into the process-global
    accumulator (:func:`global_counters`) so ``repro-exp`` can report
    an exit-code taxonomy without plumbing every evaluator instance.
    """

    def __init__(self, mirror: "ResilienceCounters | None" = None):
        self._lock = threading.Lock()
        self._stats = ResilienceStats()
        self._mirror = mirror

    def record(self, **deltas: int) -> None:
        """Add the given counter deltas (field names of the stats)."""
        with self._lock:
            self._stats = self._stats + ResilienceStats(**deltas)
        if self._mirror is not None:
            self._mirror.record(**deltas)

    def snapshot(self) -> ResilienceStats:
        """Immutable copy of the current counters."""
        with self._lock:
            return self._stats

    def reset(self) -> None:
        """Zero the counters (does not touch the mirror)."""
        with self._lock:
            self._stats = ResilienceStats()


@dataclass(frozen=True)
class TransportStats:
    """Where a fan-out sweep's bytes and seconds went (``cache_stats``
    style).

    One instance summarizes the host pool's transport — socketpairs to
    local hosts, TCP to remote ones — so ``BENCH_*.json`` context
    blocks can show payload amortization (publish-once bytes vs
    per-task ticket bytes) and host busy time next to wall-clock.

    Attributes:
        publishes: publish-once payload shipments (per-host
            instance/scenario/setting epochs).
        payload_bytes: bytes of those publish-once payloads.
        tasks: tickets dispatched (every attempt counts — retries ship
            bytes too).
        task_bytes: bytes of ticket messages (the per-task cost once
            payloads are amortized).
        result_bytes: bytes of results shipped back.
        busy_seconds: summed host compute time spent on tickets.
    """

    publishes: int = 0
    payload_bytes: int = 0
    tasks: int = 0
    task_bytes: int = 0
    result_bytes: int = 0
    busy_seconds: float = 0.0

    def __add__(self, other: "TransportStats") -> "TransportStats":
        return TransportStats(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            }
        )

    def as_dict(self) -> "dict[str, float]":
        """Plain-dict form for BENCH context / experiment metadata."""
        out: "dict[str, float]" = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = (
                round(value, 6) if isinstance(value, float) else value
            )
        return out

    @property
    def bytes_per_task(self) -> float:
        """Mean ticket bytes on the wire per dispatched task."""
        return self.task_bytes / self.tasks if self.tasks else 0.0


class TransportCounters:
    """Mutable, thread-safe accumulator behind :class:`TransportStats`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stats = TransportStats()

    def record(self, **deltas: "int | float") -> None:
        """Add the given counter deltas (field names of the stats)."""
        with self._lock:
            self._stats = self._stats + TransportStats(**deltas)

    def snapshot(self) -> TransportStats:
        """Immutable copy of the current counters."""
        with self._lock:
            return self._stats

    def reset(self) -> None:
        """Zero the counters."""
        with self._lock:
            self._stats = TransportStats()


_GLOBAL = ResilienceCounters()


def global_counters() -> ResilienceCounters:
    """The process-wide accumulator evaluators mirror into."""
    return _GLOBAL


def global_stats() -> ResilienceStats:
    """Snapshot of all resilience events in this process."""
    return _GLOBAL.snapshot()


def reset_global_stats() -> None:
    """Zero the process-wide accumulator (start of a run)."""
    _GLOBAL.reset()


@dataclass
class SupervisedTask:
    """One re-dispatchable unit of a supervised sweep.

    Attributes:
        seq: deterministic task sequence number (fault plans and
            logs key on it).
        submit: ``submit(pool, attempt) -> Future`` dispatching the
            ticket on the given executor.
        fallback: computes the ticket on the parent's serial
            in-process path; must return a result bit-identical to a
            successful worker dispatch.
    """

    seq: int
    submit: "Callable[[Any, int], concurrent.futures.Future]"
    fallback: "Callable[[], Any]"


class SweepSupervisor:
    """Drives a set of tickets to completion despite worker failures.

    The supervisor owns no pool: it asks the evaluator for one
    (``ensure_pool``) and tells it to discard a dead or suspect one
    (``reset_pool``), so pool identity/warm-state semantics stay where
    they already live.  ``run`` returns results in task order and is
    deterministic in everything except wall-clock (retry schedules
    draw jitter from a seeded generator).
    """

    def __init__(
        self,
        policy: RetryPolicy,
        counters: ResilienceCounters,
        ensure_pool: "Callable[[], Any]",
        reset_pool: "Callable[[], None]",
        clock: "Callable[[], float]" = time.monotonic,
        sleep: "Callable[[float], None]" = time.sleep,
    ):
        self._policy = policy
        self._counters = counters
        self._ensure_pool = ensure_pool
        self._reset_pool = reset_pool
        self._clock = clock
        self._sleep = sleep
        self._rng = np.random.default_rng(policy.seed)

    # ------------------------------------------------------------------
    def run(self, tasks: "Sequence[SupervisedTask]") -> "list[Any]":
        """Complete every task, returning results in task order."""
        policy = self._policy
        results: "list[Any]" = [None] * len(tasks)
        done = [False] * len(tasks)
        attempts = [0] * len(tasks)
        start = self._clock()

        def deadline_left() -> "float | None":
            if policy.sweep_deadline is None:
                return None
            return policy.sweep_deadline - (self._clock() - start)

        def serial_remainder(indices: "list[int]", reason: str) -> None:
            for i in indices:
                if done[i]:
                    continue
                results[i] = tasks[i].fallback()
                done[i] = True
                self._counters.record(**{reason: 1})

        pending = list(range(len(tasks)))
        while pending:
            remaining = deadline_left()
            if remaining is not None and remaining <= 0.0:
                serial_remainder(pending, "deadline_degraded_tasks")
                break

            # Dispatch one round of every pending ticket.  Neither the
            # pool nor a submit raises: a lost host comes back as a
            # future failing with HostLost, classified below.
            pool = self._ensure_pool()
            in_flight: "list[tuple[int, concurrent.futures.Future]]" = []
            pool_dead = False
            for i in pending:
                attempts[i] += 1
                if attempts[i] > 1:
                    self._counters.record(retries=1)
                in_flight.append((i, tasks[i].submit(pool, attempts[i])))

            retry: "list[int]" = []
            for i, future in in_flight:
                remaining = deadline_left()
                timeout = policy.task_timeout
                if remaining is not None:
                    timeout = (
                        remaining
                        if timeout is None
                        else min(timeout, remaining)
                    )
                try:
                    results[i] = future.result(timeout=timeout)
                    done[i] = True
                    continue
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BaseException as exc:  # noqa: BLE001 - classified below
                    kind = classify_failure(exc)

                if kind == FAILURE_TIMEOUT and (
                    remaining is not None and remaining <= 0.0
                ):
                    # The *sweep* deadline ran out mid-wait, not the
                    # task's own budget: degrade everything unfinished.
                    self._reset_pool()
                    self._counters.record(pool_rebuilds=1)
                    serial_remainder(pending, "deadline_degraded_tasks")
                    return results

                if kind == FAILURE_DEAD_POOL:
                    self._counters.record(worker_failures=1)
                    pool_dead = True
                elif kind == FAILURE_TIMEOUT:
                    self._counters.record(timeouts=1)
                    # A wedged worker may still hold the pool hostage;
                    # recycle it before the next round.
                    pool_dead = True
                else:
                    self._counters.record(task_failures=1)

                if attempts[i] >= policy.max_attempts:
                    results[i] = tasks[i].fallback()
                    done[i] = True
                    self._counters.record(quarantined_tasks=1)
                else:
                    retry.append(i)

            pending = [i for i in pending if not done[i]]
            if pool_dead:
                self._reset_pool()
                self._counters.record(pool_rebuilds=1)
            if retry and policy.backoff > 0.0:
                self._sleep(
                    policy.backoff_seconds(max(attempts[i] for i in retry), self._rng)
                )
        return results
