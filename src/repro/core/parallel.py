"""Parallel, cache-aware evaluation: the cost oracle at hardware speed.

The two-phase search is bottlenecked on :class:`~repro.core.evaluation.
DtrEvaluator`: every candidate weight setting is swept across the whole
failure set serially, and every single-arc weight move re-routes both
traffic classes from scratch.  This module removes both bottlenecks
without changing a single computed bit:

* :class:`RoutingCache` — an LRU cache of :class:`ClassRouting` results
  keyed by ``(class, weights, scenario)``.  Besides exact hits it serves
  *incremental* hits that generalize the evaluator's failed-arc shortcut
  to weight changes: raising the weight of an arc that lies on no
  demand-carrying shortest-path DAG cannot alter any shortest distance,
  DAG or load (arc removal is the limit of that weight going to
  infinity), so the cached routing is returned unchanged.  Local-search
  moves are single-arc, which makes this the common case.  Cache misses
  route through the delta-rerouting core
  (:mod:`repro.routing.incremental`) when it is enabled, and the
  incremental result — bit-identical to a from-scratch routing — is
  cached like any other.

* :class:`CachingDtrEvaluator` — a drop-in evaluator that interposes the
  cache on every class routing.

* :class:`ParallelDtrEvaluator` — additionally fans scenario sweeps
  (legacy failure sets and composed :class:`~repro.scenarios.ScenarioSet`
  collections alike, through the one
  :meth:`~repro.core.evaluation.DtrEvaluator.evaluate_scenarios`
  contract) and normal-evaluation batches out across a process pool.
  Scenario order, and therefore every floating-point sum, is preserved,
  so results are bit-identical to the serial evaluator;
  ``tests/core/test_parallel.py`` pins this.

Workers are long-lived: each holds its own :class:`CachingDtrEvaluator`
(built once per process by the pool initializer) so routing caches stay
warm across sweeps, and every task reports its cumulative cache counters
back so :attr:`ParallelDtrEvaluator.cache_stats` aggregates the whole
fleet.

Sweep state never ships by value: a :class:`SharedSweepState`
publishes the weight setting, the scenario list and the reuse
evaluation once per sweep through ``multiprocessing.shared_memory``
(arrays leave the pickle stream as protocol-5 out-of-band buffers),
workers attach zero-copy, and every task carries only a ``(block name,
scenario-index range)`` ticket.  Each worker sweeps its slice through
its own :meth:`~repro.core.evaluation.DtrEvaluator.evaluate_scenarios`,
which picks the scenario-axis batch engine (:mod:`repro.routing.sweep`)
or the per-scenario path exactly as a serial sweep would.  Results stay
bit-identical and invariant to ``n_jobs`` / ``chunk_size``.
"""

from __future__ import annotations

import atexit
import math
import os
import pickle
import signal
import struct
import threading
import time
import weakref
from collections import OrderedDict, deque
from concurrent.futures import (
    Executor,
    ProcessPoolExecutor,
    wait as futures_wait,
)
from dataclasses import dataclass, replace
from multiprocessing import shared_memory

import numpy as np

from repro.config import OptimizerConfig
from repro.core import faults
from repro.core.evaluation import (
    DtrEvaluator,
    ScenarioCosts,
    ScenarioEvaluation,
    Scenarios,
    compact_evaluation,
)
from repro.core.resilience import (
    ResilienceCounters,
    ResilienceStats,
    RetryPolicy,
    SupervisedTask,
    SweepSupervisor,
    TransportCounters,
    TransportStats,
    global_counters,
)
from repro.core.weights import WeightSetting
from repro.routing.engine import ClassRouting
from repro.routing.failures import FailureScenario
from repro.routing.network import Network
from repro.scenarios.scenario import Scenario
from repro.traffic.gravity import DtrTraffic


@dataclass(frozen=True)
class CacheStats:
    """Routing-cache counters.

    Attributes:
        hits_exact: lookups answered by an identical (weights, scenario)
            entry.
        hits_incremental: lookups answered by the unused-arc weight-change
            shortcut.
        misses: lookups that had to route from scratch.
    """

    hits_exact: int = 0
    hits_incremental: int = 0
    misses: int = 0

    @property
    def hits(self) -> int:
        """All cache hits."""
        return self.hits_exact + self.hits_incremental

    @property
    def lookups(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        return self.hits / self.lookups if self.lookups else 0.0

    def __add__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            self.hits_exact + other.hits_exact,
            self.hits_incremental + other.hits_incremental,
            self.misses + other.misses,
        )


@dataclass
class _CacheEntry:
    """One cached routing: the weights it was computed under, the routing,
    and the per-arc used-on-any-DAG mask for the incremental check."""

    weights: np.ndarray
    routing: ClassRouting
    used: np.ndarray


#: Recent entries probed per (class, scenario) for an incremental hit.
_PROBE_DEPTH = 4

#: LRU capacity of every evaluator's routing cache (class routings).
ROUTING_CACHE_ENTRIES = 512


class RoutingCache:
    """LRU cache of class routings with an incremental-reuse fast path.

    Keys are ``(class_id, scenario, weights_bytes)``.  A lookup first
    tries the exact key; failing that it probes the most recent entries
    of the same ``(class_id, scenario)`` and reuses one whose weights
    differ from the query only on arcs that (a) got *heavier* and (b) lie
    on no demand-carrying shortest-path DAG of the cached routing.  Such
    changes provably leave distances, DAG masks and loads untouched, so
    the cached routing is bit-identical to what a fresh computation would
    produce (the parity tests pin this).

    Args:
        max_entries: LRU capacity (entries, across classes and scenarios).
    """

    def __init__(self, max_entries: int = ROUTING_CACHE_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self._max_entries = max_entries
        self._entries: OrderedDict[tuple, _CacheEntry] = OrderedDict()
        self._recent: dict[tuple, deque] = {}
        self._hits_exact = 0
        self._hits_incremental = 0
        self._misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def stats(self) -> CacheStats:
        """Current counters (snapshot)."""
        return CacheStats(
            self._hits_exact, self._hits_incremental, self._misses
        )

    # ------------------------------------------------------------------
    def get(
        self,
        class_id: str,
        scenario: FailureScenario,
        weights: np.ndarray,
    ) -> ClassRouting | None:
        """A routing valid for ``weights`` under ``scenario``, or None."""
        key = (class_id, scenario, weights.tobytes())
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self._hits_exact += 1
            return entry.routing
        for recent_key in reversed(self._recent.get((class_id, scenario), ())):
            entry = self._entries.get(recent_key)
            if entry is None:
                continue
            changed = entry.weights != weights
            if not changed.any():
                continue  # dtype-mismatched duplicate of the exact key
            if (
                bool((weights >= entry.weights)[changed].all())
                and not entry.used[changed].any()
            ):
                self._hits_incremental += 1
                return entry.routing
        self._misses += 1
        return None

    def put(
        self,
        class_id: str,
        scenario: FailureScenario,
        weights: np.ndarray,
        routing: ClassRouting,
    ) -> None:
        """Store a routing computed (or proven valid) for ``weights``."""
        key = (class_id, scenario, weights.tobytes())
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        self._entries[key] = _CacheEntry(
            weights=np.array(weights, copy=True),
            routing=routing,
            used=routing.used_arcs(),
        )
        recent = self._recent.setdefault(
            (class_id, scenario), deque(maxlen=_PROBE_DEPTH)
        )
        recent.append(key)
        while len(self._entries) > self._max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop all entries (counters are kept)."""
        self._entries.clear()
        self._recent.clear()


class CachingDtrEvaluator(DtrEvaluator):
    """Drop-in :class:`DtrEvaluator` with the incremental routing cache.

    Produces bit-identical results to the serial evaluator — the cache
    only short-circuits recomputation of provably unchanged routings.
    ``config.execution.routing_cache = False`` disables caching (for
    memory-bound runs or A/B checks) while keeping the class usable as
    the worker-side evaluator of the parallel pool.
    """

    def __init__(
        self,
        network: Network,
        traffic: DtrTraffic,
        config: OptimizerConfig,
        delay_mode: str = "worst",
    ) -> None:
        super().__init__(network, traffic, config, delay_mode)
        self._cache = (
            RoutingCache(ROUTING_CACHE_ENTRIES)
            if config.execution.routing_cache
            else None
        )

    @property
    def cache(self) -> RoutingCache | None:
        """The routing cache (None when disabled)."""
        return self._cache

    @property
    def cache_stats(self) -> CacheStats:
        """Aggregated cache counters (all-zero when caching is off)."""
        if self._cache is None:
            return CacheStats()
        return self._cache.stats

    def _route_with_reuse(
        self,
        class_id: str,
        weights: np.ndarray,
        demands: np.ndarray,
        scenario: FailureScenario,
        base_routing: ClassRouting | None,
    ) -> tuple[ClassRouting, "frozenset[int] | None"]:
        """Cache layer over the (incremental) routing path.

        An exact cache hit skips routing entirely; misses go through the
        incremental router (when enabled), and the incremental result is
        a perfectly cacheable routing — it is bit-identical to a
        from-scratch one — so it is stored like any other.
        """
        if self._cache is None:
            return super()._route_with_reuse(
                class_id, weights, demands, scenario, base_routing
            )
        routing = self._cache.get(class_id, scenario, weights)
        reusable: frozenset[int] | None = None
        if routing is None:
            routing, reusable = super()._route_with_reuse(
                class_id, weights, demands, scenario, base_routing
            )
        self._cache.put(class_id, scenario, weights, routing)
        return routing, reusable

    def _batch_route_lookup(
        self,
        class_id: str,
        scenario: FailureScenario,
        weights: np.ndarray,
    ) -> ClassRouting | None:
        """Cache probe of the batch sweep path (same keys as the serial
        caching path, so warm caches answer batched sweeps too)."""
        if self._cache is None:
            return None
        return self._cache.get(class_id, scenario, weights)

    def _batch_route_store(
        self,
        class_id: str,
        scenario: FailureScenario,
        weights: np.ndarray,
        routing: ClassRouting,
    ) -> None:
        """Cache store of the batch sweep path."""
        if self._cache is not None:
            self._cache.put(class_id, scenario, weights, routing)


# ----------------------------------------------------------------------
# worker-process state and task functions
# ----------------------------------------------------------------------
_WORKER_EVALUATOR: CachingDtrEvaluator | None = None


def _init_worker(
    network: Network,
    traffic: DtrTraffic,
    config: OptimizerConfig,
    delay_mode: str,
) -> None:
    """Build the per-process evaluator once; its cache outlives tasks.

    Also installs the execution's fault plan (chaos testing) — workers
    only, so the parent's serial fallback path always computes clean.
    """
    global _WORKER_EVALUATOR
    _WORKER_EVALUATOR = CachingDtrEvaluator(
        network, traffic, config, delay_mode
    )
    faults.install_fault_plan(config.execution.fault_plan)
    # Under fork the worker inherits the parent's live-sweep registry
    # and its SIGTERM/atexit cleanup hooks.  A pool (re)built while a
    # sweep state is live — routine once the supervisor rebuilds pools
    # mid-sweep — would otherwise let a terminating worker *unlink the
    # parent's block*, failing every ticket still to be dispatched.
    # The worker owns none of these states: forget them, never dispose.
    _LIVE_SWEEP_STATES.clear()


def _supervised_task(fn, task_seq: int, attempt: int, /, *args):
    """Run one dispatched task inside its fault context (worker side).

    Every process-pool submission goes through this wrapper so the
    deterministic fault registry (:mod:`repro.core.faults`) can key
    kill/delay/raise faults on ``(task_seq, attempt)``.  With no plan
    installed — every production run — it is a try/finally around the
    task function.
    """
    faults.enter_task(task_seq, attempt)
    try:
        return fn(*args)
    finally:
        faults.exit_task()


def _strip_routings(evaluation: ScenarioEvaluation) -> ScenarioEvaluation:
    """Drop the attached routings (cuts IPC volume; costs are complete)."""
    if evaluation.routing_delay is None and evaluation.routing_tput is None:
        return evaluation
    return replace(evaluation, routing_delay=None, routing_tput=None)


def _serial_ticket(
    evaluator: DtrEvaluator,
    setting: WeightSetting,
    items: "list[FailureScenario | Scenario]",
    reuse: ScenarioEvaluation,
    costs_only: bool,
) -> tuple[list[ScenarioEvaluation], None, None, float]:
    """One quarantined/degraded ticket on the in-process serial path.

    Shared by the process-pool and host-pool evaluators.  Mirrors a
    dispatched ticket exactly — the serial ``evaluate_scenarios`` of
    the slice, which picks the batched or the per-scenario path the
    same way a worker does — so the result is bit-identical to a
    successful dispatch, the parity the whole resilience layer rests
    on.  The evaluation counter is restored because the sweep caller
    accounts ``len(items)`` once for the whole sweep, dispatched or
    not.
    """
    fold = compact_evaluation if costs_only else _strip_routings
    before = evaluator._num_evaluations
    begin = time.perf_counter()
    try:
        costs = DtrEvaluator.evaluate_scenarios(
            evaluator, setting, list(items), reuse=reuse
        )
        outcomes = [fold(e) for e in costs.evaluations]
    finally:
        evaluator._num_evaluations = before
    return (outcomes, None, None, time.perf_counter() - begin)


# ----------------------------------------------------------------------
# zero-copy shared-memory sweep state
# ----------------------------------------------------------------------
#: Alignment of buffers inside a shared-memory block (numpy-friendly).
_SHM_ALIGN = 64

#: Upper bound on waiting for straggler tickets before a sweep's shm
#: block is unlinked anyway (unlink-while-attached is safe; see
#: :meth:`ParallelDtrEvaluator._process_sweep_shared`).
_DISPOSE_SETTLE_TIMEOUT = 10.0


def _aligned(offset: int) -> int:
    return (offset + _SHM_ALIGN - 1) & ~(_SHM_ALIGN - 1)


class SharedSweepState:
    """One sweep's shared payload, published once through shared memory.

    The weight setting, the scenario list and the reuse evaluation
    (with its routings) are published exactly once per sweep instead
    of being pickled into every task: the payload is pickled with
    protocol 5, every contiguous array body (distance columns, DAG
    masks, demand matrices, per-variant traffic, load vectors) leaves
    the stream as an out-of-band buffer, and the buffers land in one
    shared-memory block.  Workers attach by name
    and rebuild the payload with read-only memoryviews over the block,
    so every array is a **zero-copy view** of shared memory — tasks
    then carry only ``(block name, scenario-index range)`` tickets, a
    few dozen bytes regardless of instance size.

    The parent disposes the block once the sweep's futures complete
    (workers that attached keep their mapping alive until they move to
    the next sweep, so in-flight reads are safe; POSIX keeps the pages
    until the last map closes).

    Args:
        payload: any picklable object graph; arrays must tolerate
            read-only reconstruction (evaluation inputs are never
            mutated).
    """

    def __init__(self, payload: object) -> None:
        buffers: "list[pickle.PickleBuffer]" = []
        meta = pickle.dumps(
            payload, protocol=5, buffer_callback=buffers.append
        )
        raws = [buffer.raw() for buffer in buffers]
        header = struct.pack("<QQ", len(meta), len(raws))
        lengths = struct.pack(f"<{len(raws)}Q", *(len(r) for r in raws))
        offset = _aligned(len(header) + len(lengths)) + _aligned(len(meta))
        starts = []
        for raw in raws:
            starts.append(offset)
            offset += _aligned(len(raw))
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(offset, 1)
        )
        buf = self._shm.buf
        buf[: len(header)] = header
        buf[len(header): len(header) + len(lengths)] = lengths
        meta_start = _aligned(len(header) + len(lengths))
        buf[meta_start: meta_start + len(meta)] = meta
        for raw, start in zip(raws, starts):
            buf[start: start + len(raw)] = raw
        self._size = offset
        self._disposed = False
        _LIVE_SWEEP_STATES.add(self)
        _install_sweep_cleanup()

    @property
    def name(self) -> str:
        """The shared-memory block name workers attach to."""
        return self._shm.name

    @property
    def size(self) -> int:
        """Published payload size in bytes (for benchmarks)."""
        return self._size

    def dispose(self) -> None:
        """Close and unlink the block (idempotent; parent side only)."""
        if self._disposed:
            return
        self._disposed = True
        _LIVE_SWEEP_STATES.discard(self)
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    @staticmethod
    def attach(name: str) -> "tuple[object, shared_memory.SharedMemory]":
        """Rebuild a published payload as zero-copy views (worker side).

        Returns the payload and the attached block; the caller must keep
        the block referenced for as long as the payload's arrays live.
        """
        # Attaching re-registers the block with the resource tracker;
        # under fork the tracker process is shared with the parent, so
        # the duplicate registration is an idempotent set-add and the
        # parent's unlink() clears it exactly once.
        shm = shared_memory.SharedMemory(name=name)
        buf = shm.buf
        meta_len, num_buffers = struct.unpack_from("<QQ", buf, 0)
        lengths = struct.unpack_from(f"<{num_buffers}Q", buf, 16)
        meta_start = _aligned(16 + 8 * num_buffers)
        meta = bytes(buf[meta_start: meta_start + meta_len])
        offset = meta_start + _aligned(meta_len)
        views = []
        for length in lengths:
            views.append(
                memoryview(buf)[offset: offset + length].toreadonly()
            )
            offset += _aligned(length)
        payload = pickle.loads(meta, buffers=views)
        return payload, shm


#: Parent-side registry of live (undisposed) sweep blocks.  Shared
#: memory outlives the process on abnormal exits — a SIGTERM mid-sweep
#: would leak the block in /dev/shm until reboot — so every live state
#: is tracked weakly and unlinked from an ``atexit`` hook and (when no
#: other handler claimed the signal) a chaining SIGTERM handler.
_LIVE_SWEEP_STATES: "weakref.WeakSet[SharedSweepState]" = weakref.WeakSet()
_SWEEP_CLEANUP_INSTALLED = False


def _dispose_live_sweep_states() -> None:
    """Unlink every still-live sweep block (idempotent, best-effort).

    Only OS-level disposal failures are swallowed (the block may be
    half-gone already during interpreter teardown); anything else —
    and in particular ``KeyboardInterrupt``/``SystemExit`` — must
    propagate.
    """
    for state in list(_LIVE_SWEEP_STATES):
        try:
            state.dispose()
        except (OSError, BufferError):  # pragma: no cover - teardown
            pass


def _sweep_cleanup_handler(signum: int, frame: object) -> None:
    """Dispose live blocks, then re-deliver the signal with SIG_DFL."""
    _dispose_live_sweep_states()
    signal.signal(signum, signal.SIG_DFL)
    os.kill(os.getpid(), signum)


def _install_sweep_cleanup() -> None:
    """One-shot registration of the atexit/SIGTERM cleanup hooks.

    The atexit hook always registers; the SIGTERM handler only when the
    signal is still at its default disposition and we are on the main
    thread — an application (or :class:`~repro.core.checkpoint.
    CheckpointManager`) that installed its own handler keeps it, and its
    orderly unwind disposes the blocks through the existing
    ``try/finally`` paths.
    """
    global _SWEEP_CLEANUP_INSTALLED
    if _SWEEP_CLEANUP_INSTALLED:
        return
    _SWEEP_CLEANUP_INSTALLED = True
    atexit.register(_dispose_live_sweep_states)
    if threading.current_thread() is not threading.main_thread():
        return
    try:
        if signal.getsignal(signal.SIGTERM) == signal.SIG_DFL:
            signal.signal(signal.SIGTERM, _sweep_cleanup_handler)
    except (ValueError, OSError):  # pragma: no cover - exotic contexts
        pass


#: The worker's attached sweep states: name -> (payload, shm block).
#: One sweep is live at a time; superseded blocks are closed as soon as
#: no exported views remain (a retired block whose views are still
#: referenced survives until the next retirement pass).
_WORKER_SWEEPS: "dict[str, tuple[object, shared_memory.SharedMemory]]" = {}
_WORKER_RETIRED: "list[shared_memory.SharedMemory]" = []


def _close_retired() -> None:
    still_open = []
    for shm in _WORKER_RETIRED:
        try:
            shm.close()
        except BufferError:  # pragma: no cover - views still exported
            still_open.append(shm)
    _WORKER_RETIRED[:] = still_open


def _attach_sweep_state(name: str) -> object:
    """The (cached) payload of one published sweep, attached zero-copy."""
    cached = _WORKER_SWEEPS.get(name)
    if cached is not None:
        return cached[0]
    for stale_name in list(_WORKER_SWEEPS):
        _, shm = _WORKER_SWEEPS.pop(stale_name)
        _WORKER_RETIRED.append(shm)
    _close_retired()
    payload, shm = SharedSweepState.attach(name)
    _WORKER_SWEEPS[name] = (payload, shm)
    return payload


def _worker_sweep_shared(
    name: str, start: int, stop: int, costs_only: bool = False
) -> tuple[list[ScenarioEvaluation], int, tuple[int, int, int], float]:
    """Evaluate one ticketed scenario slice against the shared state.

    The ticket carries only the block name and the slice bounds; the
    setting, scenarios and reuse evaluation are read zero-copy from the
    attached block (once per sweep, cached across this worker's
    tickets).  The slice sweeps through the worker evaluator's own
    ``evaluate_scenarios``, which picks the batched or the per-scenario
    path exactly as a serial sweep would.  ``costs_only`` folds locally
    — only cost/SLA scalars ship back.
    """
    evaluator = _WORKER_EVALUATOR
    assert evaluator is not None, "worker initializer did not run"
    begin = time.perf_counter()
    delay, tput, scenarios, reuse = _attach_sweep_state(name)
    setting = WeightSetting(delay, tput)
    costs = evaluator.evaluate_scenarios(
        setting, list(scenarios[start:stop]), reuse=reuse
    )
    fold = compact_evaluation if costs_only else _strip_routings
    outcomes = [fold(e) for e in costs.evaluations]
    stats = evaluator.cache_stats
    return (
        outcomes,
        os.getpid(),
        (stats.hits_exact, stats.hits_incremental, stats.misses),
        time.perf_counter() - begin,
    )


def _worker_normal_batch(
    settings: tuple[tuple[np.ndarray, np.ndarray], ...],
) -> tuple[list[ScenarioEvaluation], int, tuple[int, int, int], float]:
    """Evaluate a batch of settings under the failure-free scenario."""
    evaluator = _WORKER_EVALUATOR
    assert evaluator is not None, "worker initializer did not run"
    begin = time.perf_counter()
    outcomes = [
        _strip_routings(
            evaluator.evaluate_normal(WeightSetting(delay, tput))
        )
        for delay, tput in settings
    ]
    stats = evaluator.cache_stats
    return (
        outcomes,
        os.getpid(),
        (stats.hits_exact, stats.hits_incremental, stats.misses),
        time.perf_counter() - begin,
    )


def _shutdown_pool(pool: Executor, wait: bool = True) -> None:
    """Shut an executor down, tolerating one that is already broken.

    A pool whose workers were SIGKILLed (``BrokenProcessPool``) must
    still shut down cleanly — ``close()`` on a crashed evaluator cannot
    be allowed to raise.  With ``wait=False``
    queued tasks are cancelled too (used when recycling a *suspect*
    pool that may hold a wedged worker).  Only pool-teardown failures
    are swallowed; ``KeyboardInterrupt``/``SystemExit`` propagate.
    """
    try:
        pool.shutdown(wait=wait, cancel_futures=not wait)
    except (OSError, RuntimeError):  # pragma: no cover - best effort
        pass


class ParallelDtrEvaluator(CachingDtrEvaluator):
    """Cost oracle that sweeps failure sets across a worker pool.

    Results are bit-identical to :class:`DtrEvaluator`: scenarios are
    evaluated independently with the same arithmetic, reassembled in
    scenario order, and summed in the same order.  Evaluations returned
    from parallel sweeps carry no attached routings (they stay in the
    workers); everything else — costs, SLA accounting, load vectors —
    is complete.

    The pool is created lazily on the first parallel call and torn down
    by :meth:`close` (also a context manager).  With ``n_jobs=1`` every
    call degrades gracefully to the serial cached path.

    Args:
        network: the topology.
        traffic: the two-class traffic instance.
        config: optimizer configuration; ``config.execution`` supplies
            ``n_jobs``, chunking and cache knobs.
        delay_mode: path-delay aggregation mode.
    """

    def __init__(
        self,
        network: Network,
        traffic: DtrTraffic,
        config: OptimizerConfig,
        delay_mode: str = "worst",
    ) -> None:
        super().__init__(network, traffic, config, delay_mode)
        execution = config.execution
        self._n_jobs = execution.resolved_jobs
        self._chunk_size = execution.chunk_size
        self._pool: Executor | None = None
        self._worker_stats: dict[int, CacheStats] = {}
        self._worker_busy: dict[int, float] = {}
        self._resilience = ResilienceCounters(mirror=global_counters())
        self._transport = TransportCounters()
        self._retry_policy = RetryPolicy.from_execution(execution)

    # ------------------------------------------------------------------
    @property
    def n_jobs(self) -> int:
        """Effective worker count."""
        return self._n_jobs

    @property
    def cache_stats(self) -> CacheStats:
        """Cache counters aggregated over this process and all workers."""
        total = CachingDtrEvaluator.cache_stats.fget(self)
        for stats in self._worker_stats.values():
            total = total + stats
        return total

    @property
    def resilience_stats(self) -> ResilienceStats:
        """Failure/retry/degradation counters of this evaluator's sweeps."""
        return self._resilience.snapshot()

    @property
    def transport_stats(self) -> TransportStats:
        """Bytes/seconds accounting of this evaluator's dispatches.

        ``payload_bytes`` counts publish-once shm blocks, ``task_bytes``
        the pickled per-task arguments (~36-byte sweep tickets; normal
        batches ship their weight vectors) and ``busy_seconds`` the
        summed in-worker compute time, so benchmarks can separate
        compute from dispatch overhead.
        """
        return self._transport.snapshot()

    @property
    def worker_busy_seconds(self) -> "dict[int, float]":
        """Per-worker (pid-keyed) cumulative task compute seconds."""
        return dict(self._worker_busy)

    def close(self) -> None:
        """Shut down the worker pool and sibling oracles (idempotent).

        Safe on a broken pool (SIGKILLed workers): teardown failures of
        the executor are swallowed so callers' ``finally`` blocks never
        mask the original error.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            _shutdown_pool(pool)
        super().close()

    def __enter__(self) -> "ParallelDtrEvaluator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:
        # Interpreter-teardown finalizer: only plausible teardown noise
        # is swallowed — KeyboardInterrupt/SystemExit (or anything else
        # unexpected) propagates instead of being silently eaten.
        try:
            self.close()
        except (OSError, RuntimeError):
            pass

    # ------------------------------------------------------------------
    def _ensure_pool(self) -> Executor:
        if self._pool is None:
            # Start the resource tracker BEFORE forking workers so they
            # inherit it: shared-memory blocks are then registered and
            # unregistered against one tracker (the parent's unlink
            # clears the worker attaches), instead of every worker
            # lazily spawning its own tracker that warns about "leaked"
            # blocks it never saw unlinked.  Best-effort: purely
            # cosmetic on platforms where it is unavailable.
            try:
                from multiprocessing import resource_tracker

                resource_tracker.ensure_running()
            except Exception:  # pragma: no cover
                pass
            self._pool = ProcessPoolExecutor(
                max_workers=self._n_jobs,
                initializer=_init_worker,
                initargs=(
                    self._network,
                    self._traffic,
                    self._config,
                    self._delay_mode,
                ),
            )
        return self._pool

    def _chunk_ranges(self, count: int) -> list[tuple[int, int]]:
        """Contiguous index ranges; ~four tasks per worker unless pinned."""
        if self._chunk_size is not None:
            size = self._chunk_size
        else:
            size = max(1, math.ceil(count / (self._n_jobs * 4)))
        return [(i, min(i + size, count)) for i in range(0, count, size)]

    def _chunks(self, items: list) -> list[list]:
        """Contiguous chunks; about four tasks per worker unless pinned."""
        return [
            items[lo:hi] for lo, hi in self._chunk_ranges(len(items))
        ]

    def _record_worker_stats(
        self, pid: int, counters: tuple[int, int, int]
    ) -> None:
        self._worker_stats[pid] = CacheStats(*counters)

    # ------------------------------------------------------------------
    # supervision: retry/backoff, pool rebuild, serial degradation
    # ------------------------------------------------------------------
    def _reset_pool(self) -> None:
        """Discard a dead or suspect pool; the next call rebuilds it.

        The stale executor is shut down without waiting (a wedged
        worker must not block the supervisor) and queued tasks are
        cancelled.  Dead workers' last-reported cache counters are
        kept — the work they completed happened.  Rebuild goes through
        :meth:`_ensure_pool`, i.e. the same warm-state machinery as a
        first build.
        """
        stale, self._pool = self._pool, None
        if stale is not None:
            _shutdown_pool(stale, wait=False)

    def _supervise(self, tasks: "list[SupervisedTask]") -> list:
        """Run tickets under the retry/degradation supervisor."""
        supervisor = SweepSupervisor(
            policy=self._retry_policy,
            counters=self._resilience,
            ensure_pool=self._ensure_pool,
            reset_pool=self._reset_pool,
        )
        return supervisor.run(tasks)

    def _collect(self, results: list) -> list[ScenarioEvaluation]:
        """Fold supervised task results in task (= scenario) order.

        Serial-fallback results carry no pid/counters (the parent's own
        cache counters are already in :attr:`cache_stats`); recording
        them would double-count, so they are skipped.
        """
        outcomes: list[ScenarioEvaluation] = []
        for chunk_outcomes, pid, counters, elapsed in results:
            outcomes.extend(chunk_outcomes)
            if pid is not None:
                self._record_worker_stats(pid, counters)
                self._worker_busy[pid] = (
                    self._worker_busy.get(pid, 0.0) + elapsed
                )
                self._transport.record(busy_seconds=elapsed)
        return outcomes

    def _make_task(
        self,
        seq: int,
        fn,
        args: tuple,
        fallback,
        sink: "list | None" = None,
    ) -> SupervisedTask:
        """A supervised ticket: dispatch via the fault-context wrapper.

        ``sink`` collects every future ever submitted for the ticket so
        shared-memory sweeps can settle stragglers before unlinking.
        Every submission's pickled argument size lands in
        :attr:`transport_stats`, so the bytes-on-wire of every ticket
        stay measured, not asserted.
        """
        ticket_bytes = len(pickle.dumps(args, protocol=5))

        def submit(pool: Executor, attempt: int):
            future = pool.submit(_supervised_task, fn, seq, attempt, *args)
            self._transport.record(tasks=1, task_bytes=ticket_bytes)
            if sink is not None:
                sink.append(future)
            return future

        return SupervisedTask(seq=seq, submit=submit, fallback=fallback)

    # ------------------------------------------------------------------
    def evaluate_scenarios(
        self,
        setting: WeightSetting,
        scenarios: Scenarios,
        reuse: ScenarioEvaluation | None = None,
    ) -> ScenarioCosts:
        """Parallel counterpart of :meth:`DtrEvaluator.evaluate_scenarios`.

        Same contract as the serial sweep — a
        :class:`~repro.scenarios.ScenarioSet`, a legacy ``FailureSet``
        or any scenario sequence.  Scenario chunks run concurrently;
        results are reassembled in scenario order, so
        ``ScenarioCosts.total_cost`` sums in the same order as the
        serial sweep and is bit-identical to it.  Chunk boundaries key
        off nothing but list position, so the split is deterministic.
        """
        items = list(scenarios)
        if self._n_jobs == 1 or len(items) < 2:
            return super().evaluate_scenarios(setting, items, reuse=reuse)
        return self._process_sweep(setting, items, reuse, costs_only=False)

    def _sweep_costs(
        self,
        setting: WeightSetting,
        items: list,
        reuse: ScenarioEvaluation | None,
    ) -> ScenarioCosts:
        """Costs-only sweep across the pool: workers fold locally.

        Same fan-out and fold order as :meth:`evaluate_scenarios`, but
        each worker compacts its outcomes before shipping, so the IPC
        return is a few scalars per scenario instead of load vectors
        and SLA arrays.  Cost values are bit-identical — compaction
        happens strictly after the worker computed the full evaluation.
        """
        if self._n_jobs == 1 or len(items) < 2:
            return super()._sweep_costs(setting, items, reuse)
        return self._process_sweep(setting, items, reuse, costs_only=True)

    def _process_sweep(
        self,
        setting: WeightSetting,
        scenarios: "list[FailureScenario | Scenario]",
        reuse: ScenarioEvaluation | None,
        costs_only: bool,
    ) -> ScenarioCosts:
        """The zero-copy sweep: publish once, ship index tickets only.

        The sweep payload — weights, the scenario list, the reuse
        evaluation with its routings (workers need them for the
        failed-arc shortcut) — is published once through a
        :class:`SharedSweepState`; every task pickles nothing but
        ``(block name, start, stop, costs_only)``.  Workers attach
        zero-copy and sweep their slice through their own
        ``evaluate_scenarios``, so results (reassembled in scenario
        order) are bit-identical to the serial sweep and invariant to
        ``n_jobs`` and ``chunk_size``.

        Dispatch runs under the resilience supervisor: the state block
        outlives pool rebuilds (re-dispatched tickets re-attach by
        name) and is disposed only after every future ever submitted —
        across all attempts — has settled, so a worker dying mid-attach
        still ends with the block unlinked, never leaked.
        """
        if reuse is None:
            reuse = self.evaluate_normal(setting)
        state = SharedSweepState(
            (setting.delay, setting.tput, tuple(scenarios), reuse)
        )
        self._transport.record(publishes=1, payload_bytes=state.size)
        futures: list = []
        tasks = [
            self._make_task(
                seq,
                _worker_sweep_shared,
                (state.name, lo, hi, costs_only),
                lambda lo=lo, hi=hi: _serial_ticket(
                    self, setting, scenarios[lo:hi], reuse, costs_only
                ),
                sink=futures,
            )
            for seq, (lo, hi) in enumerate(self._chunk_ranges(len(scenarios)))
        ]
        try:
            outcomes = self._collect(self._supervise(tasks))
        finally:
            # Unlinking before a straggler ticket attaches would fail
            # it spuriously: settle every submitted future first.  The
            # wait is bounded — a truly wedged worker must not pin the
            # block forever; unlink-while-attached is safe (POSIX keeps
            # the pages mapped) and a subsequent attach raises into a
            # future nobody reads.
            if futures:
                futures_wait(futures, timeout=_DISPOSE_SETTLE_TIMEOUT)
            state.dispose()
        self._num_evaluations += len(scenarios)
        return ScenarioCosts(tuple(outcomes))

    # ------------------------------------------------------------------
    def evaluate_normal_batch(
        self, settings: "list[WeightSetting] | tuple[WeightSetting, ...]"
    ) -> tuple[ScenarioEvaluation, ...]:
        """Failure-free costs of several settings, fanned across the pool."""
        settings = list(settings)
        if self._n_jobs == 1 or len(settings) < 2:
            return super().evaluate_normal_batch(settings)
        tasks = [
            self._make_task(
                seq,
                _worker_normal_batch,
                (tuple((s.delay, s.tput) for s in chunk),),
                lambda chunk=chunk: self._serial_normal_ticket(chunk),
            )
            for seq, chunk in enumerate(self._chunks(settings))
        ]
        outcomes = self._collect(self._supervise(tasks))
        self._num_evaluations += len(settings)
        return tuple(outcomes)

    def _serial_normal_ticket(
        self, chunk: "list[WeightSetting]"
    ) -> tuple[list[ScenarioEvaluation], None, None, float]:
        """Quarantined/degraded normal-batch ticket, computed in-process."""
        before = self._num_evaluations
        begin = time.perf_counter()
        try:
            outcomes = [
                _strip_routings(self.evaluate_normal(s)) for s in chunk
            ]
        finally:
            self._num_evaluations = before
        return (outcomes, None, None, time.perf_counter() - begin)


def make_evaluator(
    network: Network,
    traffic: DtrTraffic,
    config: OptimizerConfig,
    delay_mode: str = "worst",
) -> DtrEvaluator:
    """The right evaluator for ``config.execution``.

    A ``hosts`` spec selects the distributed evaluator (scenario sweeps
    across a TCP host pool), ``n_jobs > 1`` (or 0 = all CPUs on a
    multi-core host) the parallel evaluator, ``routing_cache`` alone
    the caching one, and the plain serial evaluator otherwise.  All
    four produce bit-identical results.
    """
    execution = config.execution
    if execution.hosts is not None:
        # Deferred import: repro.core.distributed imports this module.
        from repro.core.distributed import DistributedDtrEvaluator

        return DistributedDtrEvaluator(network, traffic, config, delay_mode)
    if execution.resolved_jobs > 1:
        return ParallelDtrEvaluator(network, traffic, config, delay_mode)
    if execution.routing_cache:
        return CachingDtrEvaluator(network, traffic, config, delay_mode)
    return DtrEvaluator(network, traffic, config, delay_mode)
