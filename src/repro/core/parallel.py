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
  (:class:`~repro.scenarios.ScenarioSet` collections, through the one
  :meth:`~repro.core.evaluation.DtrEvaluator.evaluate_scenarios`
  contract) and normal-evaluation batches out to sweep hosts:
  ``n_jobs=N`` forked local hosts on socketpairs, or ``repro-exp
  serve-host`` servers over TCP (:mod:`repro.core.distributed` holds the
  one transport).  Scenario order, and therefore every floating-point
  sum, is preserved, so results are bit-identical to the serial
  evaluator; ``tests/core/test_parallel.py`` pins this.

Hosts are long-lived: each builds its own :class:`CachingDtrEvaluator`
once per connection, so routing caches stay warm across sweeps, and
every ticket reports its host's cumulative cache counters back so
:attr:`ParallelDtrEvaluator.cache_stats` aggregates the whole fleet.

Sweep state never ships per ticket: the instance, the scenario set and
each weight setting are published once per host as content-keyed
epochs, and a sweep ticket names them by digest plus a scenario-index
range.  Each host sweeps its slice through its own serial
:meth:`~repro.core.evaluation.DtrEvaluator.evaluate_scenarios`, which
picks the scenario-axis batch engine (:mod:`repro.routing.sweep`) or the
per-scenario path exactly as a serial sweep would.
"""

from __future__ import annotations

import hashlib
import pickle
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from repro.config import OptimizerConfig
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
from repro.routing.backend import parse_hosts
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
# ticket bodies: what a sweep host runs, and what the parent's serial
# fallback runs in its place
# ----------------------------------------------------------------------
def _strip_routings(evaluation: ScenarioEvaluation) -> ScenarioEvaluation:
    """Drop the attached routings (cuts IPC volume; costs are complete)."""
    if evaluation.routing_delay is None and evaluation.routing_tput is None:
        return evaluation
    return replace(evaluation, routing_delay=None, routing_tput=None)


def _sweep_slice(
    evaluator: DtrEvaluator,
    setting: WeightSetting,
    items: "Sequence[FailureScenario | Scenario]",
    reuse: ScenarioEvaluation,
    costs_only: bool,
) -> list[ScenarioEvaluation]:
    """One sweep ticket: the serial sweep of a scenario slice, folded.

    The unbound ``DtrEvaluator.evaluate_scenarios`` call keeps a fan-out
    evaluator's fallback in-process instead of dispatching again; on a
    host's serial evaluator it is the ordinary call.  Either way the
    slice picks the batched or the per-scenario path exactly as a serial
    sweep would.  ``costs_only`` folds to cost/SLA scalars before the
    outcomes ship.
    """
    fold = compact_evaluation if costs_only else _strip_routings
    costs = DtrEvaluator.evaluate_scenarios(
        evaluator, setting, list(items), reuse=reuse
    )
    return [fold(e) for e in costs.evaluations]


def _normal_slice(
    evaluator: DtrEvaluator, settings: "Sequence[WeightSetting]"
) -> list[ScenarioEvaluation]:
    """One normal-batch ticket: failure-free evaluations, no routings."""
    return [_strip_routings(evaluator.evaluate_normal(s)) for s in settings]


def _serial_ticket(
    evaluator: DtrEvaluator, work, *args
) -> tuple[list[ScenarioEvaluation], None, None, float]:
    """One quarantined/degraded ticket on the parent's serial path.

    ``work`` is the ticket body a host would have run
    (:func:`_sweep_slice` or :func:`_normal_slice`), so the result is
    bit-identical to a successful dispatch — the parity the whole
    resilience layer rests on.  The evaluation counter is restored
    because the caller accounts for the whole sweep or batch once,
    dispatched or not.  The worker slot is None: the parent's own cache
    counters are already in ``cache_stats``.
    """
    before = evaluator._num_evaluations
    begin = time.perf_counter()
    try:
        outcomes = work(evaluator, *args)
    finally:
        evaluator._num_evaluations = before
    return (outcomes, None, None, time.perf_counter() - begin)


def _digest(payload: bytes) -> bytes:
    return hashlib.sha1(payload).digest()


class ParallelDtrEvaluator(CachingDtrEvaluator):
    """Cost oracle that fans sweeps and normal batches out to sweep hosts.

    ``config.execution`` names the hosts: ``n_jobs=N`` forks N local
    hosts, each connected by a private ``socket.socketpair()``, and
    ``hosts="host:port,..."`` connects to running ``repro-exp
    serve-host`` servers over TCP.  Both run the one transport of
    :mod:`repro.core.distributed`.  The pool is built lazily on the
    first fan-out and torn down by :meth:`close` (also a context
    manager).

    Results are **bit-identical** to :class:`DtrEvaluator`: scenarios
    evaluate independently against a NORMAL reuse evaluation, tickets
    reassemble in scenario order and sums fold in scenario order, so
    results are invariant to the host count, ``chunk_size`` and host
    failures.  Evaluations returned from fan-out carry no attached
    routings (they stay on the hosts); costs, SLA accounting and load
    vectors are complete.  Sweeps of fewer than two scenarios, batches
    of fewer than two settings and single evaluations run on the
    parent.

    Args:
        network: the topology.
        traffic: the two-class traffic instance.
        config: optimizer configuration; ``config.execution`` supplies
            the hosts, chunking, cache and resilience knobs.
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
        # Deferred import: repro.core.distributed imports this module.
        from repro.core.distributed import DistributedSweepExecutor

        execution = config.execution
        if execution.hosts is not None:
            specs: "tuple[tuple[str, int] | str, ...]" = parse_hosts(
                execution.hosts
            )
        else:
            specs = ("local",) * execution.resolved_jobs
        self._chunk_size = execution.chunk_size
        self._resilience = ResilienceCounters(mirror=global_counters())
        self._transport = TransportCounters()
        self._retry_policy = RetryPolicy.from_execution(execution)
        self._executor = DistributedSweepExecutor(
            specs, self._resilience, self._transport
        )
        self._host_stats: "dict[int, CacheStats]" = {}
        self._host_busy: "dict[int, float]" = {}
        self._instance_key: "bytes | None" = None
        self._scen_keys: "OrderedDict[tuple[int, ...], tuple]" = (
            OrderedDict()
        )

    # ------------------------------------------------------------------
    @property
    def n_hosts(self) -> int:
        """Configured host count (the shard count)."""
        return self._executor.n_hosts

    @property
    def cache_stats(self) -> CacheStats:
        """Cache counters aggregated over this process and all hosts."""
        total = CachingDtrEvaluator.cache_stats.fget(self)
        for stats in self._host_stats.values():
            total = total + stats
        return total

    @property
    def resilience_stats(self) -> ResilienceStats:
        """Failure/retry/degradation counters of this evaluator's sweeps."""
        return self._resilience.snapshot()

    @property
    def transport_stats(self) -> TransportStats:
        """Bytes-on-wire / busy-seconds accounting of the host pool.

        ``payload_bytes`` counts publish-once epoch frames (instance,
        scenario set, setting; once per host), ``task_bytes`` the ticket
        frames (sweep tickets are tens of bytes; normal-batch tickets
        carry their weight vectors), ``result_bytes`` the replies and
        ``busy_seconds`` the summed in-host compute time, so benchmarks
        can separate compute from dispatch overhead.
        """
        return self._transport.snapshot()

    @property
    def worker_busy_seconds(self) -> "dict[int, float]":
        """Per-host (index-keyed) cumulative ticket compute seconds."""
        return dict(self._host_busy)

    def close(self) -> None:
        """Shut down every host and sibling oracle (idempotent).

        Safe after host deaths: a killed host's teardown never raises,
        so callers' ``finally`` blocks never mask the original error.
        """
        self._executor.close()
        super().close()

    def __enter__(self) -> "ParallelDtrEvaluator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except (OSError, RuntimeError):  # pragma: no cover - teardown
            pass

    # ------------------------------------------------------------------
    # epoch keys and frames
    # ------------------------------------------------------------------
    def _instance_epoch(self) -> "tuple[bytes, Callable[[], bytes]]":
        blob = (self._network, self._traffic, self._config, self._delay_mode)
        if self._instance_key is None:
            payload = pickle.dumps(blob, protocol=5)
            self._instance_key = b"i" + _digest(payload)
        key = self._instance_key
        return key, lambda: self._executor.frame_for(
            key, lambda: ("init", key, blob)
        )

    def _scenario_epoch(
        self, items: tuple
    ) -> "tuple[bytes, Callable[[], bytes]]":
        # Keyed by object identity first (scenario objects are frozen;
        # phase-2 re-sweeps the same set thousands of times), falling
        # back to a content digest of the pickled tuple.  The memo holds
        # the tuples it keyed, so ids cannot be recycled under it.
        id_key = tuple(id(s) for s in items)
        memo = self._scen_keys
        hit = memo.get(id_key)
        if hit is not None:
            memo.move_to_end(id_key)
            key = hit[0]
        else:
            key = b"s" + _digest(pickle.dumps(items, protocol=5))
            memo[id_key] = (key, items)
            if len(memo) > 8:
                memo.popitem(last=False)
        return key, lambda: self._executor.frame_for(
            key, lambda: ("scenarios", key, items)
        )

    def _setting_epoch(
        self, setting: WeightSetting
    ) -> "tuple[bytes, Callable[[], bytes]]":
        delay_key, tput_key = setting.key()
        key = b"w" + _digest(delay_key + b"|" + tput_key)
        return key, lambda: self._executor.frame_for(
            key, lambda: ("setting", key, setting.delay, setting.tput)
        )

    # ------------------------------------------------------------------
    # fan-out
    # ------------------------------------------------------------------
    def evaluate_scenarios(
        self,
        setting: WeightSetting,
        scenarios: Scenarios,
        reuse: "ScenarioEvaluation | None" = None,
    ) -> ScenarioCosts:
        """Fan-out counterpart of :meth:`DtrEvaluator.evaluate_scenarios`.

        Same contract as the serial sweep — a
        :class:`~repro.scenarios.ScenarioSet` or any scenario sequence.
        Chunk boundaries key off nothing but list position and the host
        count, so the split is deterministic.
        """
        items = list(scenarios)
        if len(items) < 2:
            return super().evaluate_scenarios(setting, items, reuse=reuse)
        return self._host_sweep(setting, items, reuse, costs_only=False)

    def _sweep_costs(
        self,
        setting: WeightSetting,
        items: list,
        reuse: "ScenarioEvaluation | None",
    ) -> ScenarioCosts:
        """Costs-only sweep: hosts fold locally, scalars stream back.

        Cost values are bit-identical — compaction happens strictly
        after the host computed the full evaluation.
        """
        if len(items) < 2:
            return super()._sweep_costs(setting, items, reuse)
        return self._host_sweep(setting, items, reuse, costs_only=True)

    def _host_sweep(
        self,
        setting: WeightSetting,
        items: list,
        reuse: "ScenarioEvaluation | None",
        costs_only: bool,
    ) -> ScenarioCosts:
        # Hosts compute their own NORMAL reuse evaluation per setting
        # (bit-identical by the evaluator-parity invariant, and far
        # cheaper than shipping routings); the parent's serves the
        # fallback.
        if reuse is None:
            reuse = self.evaluate_normal(setting)
        ikey, iframe = self._instance_epoch()
        skey, sframe = self._scenario_epoch(tuple(items))
        wkey, wframe = self._setting_epoch(setting)
        outcomes = self._fan_out(
            "sweep",
            len(items),
            [(ikey, iframe), (skey, sframe), (wkey, wframe)],
            lambda lo, hi: (ikey, skey, wkey, lo, hi, costs_only),
            lambda lo, hi: _serial_ticket(
                self, _sweep_slice, setting, items[lo:hi], reuse, costs_only
            ),
        )
        self._num_evaluations += len(items)
        return ScenarioCosts(tuple(outcomes))

    def evaluate_normal_batch(
        self, settings: "list[WeightSetting] | tuple[WeightSetting, ...]"
    ) -> tuple[ScenarioEvaluation, ...]:
        """Failure-free costs of several settings, fanned out to hosts.

        Each ticket carries the weight vectors of its settings; outcomes
        come back without routings, in input order.
        """
        settings = list(settings)
        if len(settings) < 2:
            return super().evaluate_normal_batch(settings)
        ikey, iframe = self._instance_epoch()
        vectors = [(s.delay, s.tput) for s in settings]
        outcomes = self._fan_out(
            "normal",
            len(settings),
            [(ikey, iframe)],
            lambda lo, hi: (ikey, tuple(vectors[lo:hi])),
            lambda lo, hi: _serial_ticket(
                self, _normal_slice, settings[lo:hi]
            ),
        )
        self._num_evaluations += len(settings)
        return tuple(outcomes)

    def _fan_out(
        self,
        kind: str,
        count: int,
        epochs: "list[tuple[bytes, Callable[[], bytes]]]",
        body: "Callable[[int, int], tuple]",
        fallback: "Callable[[int, int], tuple]",
    ) -> list[ScenarioEvaluation]:
        """Run ``count`` items as supervised tickets; outcomes in order.

        ``body(lo, hi)`` is a ticket's wire body and ``fallback(lo, hi)``
        computes the same slice on the parent's serial path.
        """
        tasks = []
        tickets = self._executor.plan_tickets(
            count,
            self._network.num_nodes,
            self._network.num_arcs,
            self._chunk_size,
        )
        for seq, (owner, lo, hi) in enumerate(tickets):

            def submit(pool, attempt, owner=owner, seq=seq, args=body(lo, hi)):
                return self._executor.submit_ticket(
                    pool, owner, attempt, seq, kind, args, epochs
                )

            tasks.append(
                SupervisedTask(
                    seq=seq,
                    submit=submit,
                    fallback=lambda lo=lo, hi=hi: fallback(lo, hi),
                )
            )
        supervisor = SweepSupervisor(
            policy=self._retry_policy,
            counters=self._resilience,
            ensure_pool=self._executor.ensure_pool,
            reset_pool=self._executor.recycle_pool,
        )
        return self._collect(supervisor.run(tasks))

    def _collect(self, results: list) -> "list[ScenarioEvaluation]":
        """Fold ticket results in ticket (= item) order.

        Serial-fallback results carry no host index or counters (the
        parent's own cache counters are already in :attr:`cache_stats`),
        so they are skipped.
        """
        outcomes: "list[ScenarioEvaluation]" = []
        for chunk_outcomes, host_index, counters, elapsed in results:
            outcomes.extend(chunk_outcomes)
            if host_index is not None:
                self._host_stats[host_index] = CacheStats(*counters)
                self._host_busy[host_index] = (
                    self._host_busy.get(host_index, 0.0) + elapsed
                )
                self._transport.record(busy_seconds=elapsed)
        return outcomes


def make_evaluator(
    network: Network,
    traffic: DtrTraffic,
    config: OptimizerConfig,
    delay_mode: str = "worst",
) -> DtrEvaluator:
    """The right evaluator for ``config.execution``.

    A ``hosts`` spec or ``n_jobs > 1`` (0 = all CPUs on a multi-core
    host) selects the fan-out evaluator, ``routing_cache`` alone the
    caching one, and the plain serial evaluator otherwise.  All three
    produce bit-identical results.
    """
    execution = config.execution
    if execution.hosts is not None or execution.resolved_jobs > 1:
        return ParallelDtrEvaluator(network, traffic, config, delay_mode)
    if execution.routing_cache:
        return CachingDtrEvaluator(network, traffic, config, delay_mode)
    return DtrEvaluator(network, traffic, config, delay_mode)
