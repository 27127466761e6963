"""Evaluation of a DTR weight setting: the paper's cost oracle.

:class:`DtrEvaluator` binds a network, the two traffic matrices and the
cost-model parameters, and answers "what does weight setting ``W`` cost
under scenario ``s``?"  Everything the optimizer and every experiment
needs funnels through :meth:`DtrEvaluator.evaluate`:

1. route each class by its own weights (SPF + ECMP);
2. superpose class loads (shared FIFO) and derive per-arc delays (Eq. 1);
3. delay class pays the SLA penalty Lambda (Eq. 2) on its worst used path;
4. throughput class pays the Fortz–Thorup cost Phi on total loads.

Failure sweeps exploit a structural shortcut: an arc that lies on no
shortest-path DAG of a class under normal conditions cannot change that
class's routing when it fails (removing a never-shortest arc leaves all
shortest distances, DAGs and loads untouched), so the normal routing is
reused.  Passing the normal-scenario evaluation as ``reuse`` enables the
shortcut; tests pin it against the direct computation.

That shortcut is the trivial (all-destinations-unaffected) case of the
delta-rerouting core (:mod:`repro.routing.incremental`), which the
evaluator uses for every routing when
``config.execution.incremental_routing`` is on (the default): single-arc
weight moves (:meth:`DtrEvaluator.evaluate_move` /
:meth:`DtrEvaluator.revert_move`) and failure scenarios re-route only
the destinations the delta can affect, and path-delay columns of
untouched destinations are copied from the ``reuse`` evaluation instead
of re-propagated.  All of it is bit-identical to from-scratch
evaluation; tests pin the parity.

Scenario composition (:mod:`repro.scenarios`): every evaluation entry
point accepts composed :class:`~repro.scenarios.Scenario` objects and
:class:`~repro.scenarios.ScenarioSet` collections as well as bare
:class:`~repro.routing.failures.FailureScenario` items.  The topology
part is unwrapped onto the failure path, and a traffic variant
routes the evaluation through a cached *sibling* evaluator bound to the
perturbed traffic — the sibling owns its own incremental routers and
propagation memos, making every reuse key traffic-variant-aware by
construction.  :meth:`DtrEvaluator.evaluate_scenarios` is the one sweep
contract shared by the serial, caching and parallel evaluators.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Sequence, Union

import numpy as np

from repro.config import OptimizerConfig
from repro.core.delay import arc_delays
from repro.core.fortz import fortz_cost
from repro.core.lexicographic import CostPair
from repro.core.perturbation import Move
from repro.core.sla import SlaOutcome, sla_outcome
from repro.core.weights import WeightSetting
from repro.routing.backend import SWEEP_BATCH_MIN_SCENARIOS
from repro.routing.engine import ClassRouting, PathDelayReuse, RoutingEngine
from repro.routing.failures import NORMAL, FailureScenario
from repro.routing.incremental import IncrementalRouter
from repro.routing.network import Network
from repro.routing.sweep import (
    flush_delay_batch,
    plan_sweep,
    route_scenario_batch,
)
from repro.scenarios.scenario import Scenario, ScenarioSet, as_scenario
from repro.scenarios.variants import TrafficVariant
from repro.traffic.gravity import DtrTraffic

#: Everything the sweep entry points accept as a scenario collection: a
#: ScenarioSet, or any sequence of Scenario / FailureScenario items.
Scenarios = Union[ScenarioSet, Sequence]

#: LRU capacity of each variant's NORMAL-evaluation cache (the robust
#: search alternates between an incumbent and one candidate setting, so
#: a handful of entries per variant already serves every hit; the cache
#: is per variant, so wide cross products cannot thrash it).
_VARIANT_NORMAL_CACHE = 4


@dataclass(frozen=True)
class ScenarioEvaluation:
    """Full outcome of one (weight setting, scenario) evaluation.

    Attributes:
        scenario: the topology part of the scenario evaluated (a
            composed scenario's failure half; the traffic half is in
            ``variant``).
        cost: the global cost ``K = <Lambda, Phi>``.
        sla: SLA accounting for the delay class.
        loads_delay: per-arc delay-class loads.
        loads_tput: per-arc throughput-class loads.
        arc_delay: per-arc delay ``D_l`` from total loads.
        pair_delays: ``(N, N)`` end-to-end delay matrix of the delay class.
        utilization: per-arc total utilization.
        routing_delay: the delay-class routing (enables failure-sweep
            reuse; None on reused evaluations).
        routing_tput: the throughput-class routing.
        variant: the traffic variant in force (None = base traffic).
        kind: the scenario-family tag when the evaluation came from a
            composed :class:`~repro.scenarios.Scenario` (None on plain
            failure evaluations).
    """

    scenario: FailureScenario
    cost: CostPair
    sla: SlaOutcome
    loads_delay: np.ndarray
    loads_tput: np.ndarray
    arc_delay: np.ndarray
    pair_delays: np.ndarray
    utilization: np.ndarray
    routing_delay: ClassRouting | None = None
    routing_tput: ClassRouting | None = None
    variant: TrafficVariant | None = None
    kind: str | None = None

    @property
    def total_loads(self) -> np.ndarray:
        """Per-arc load across both classes."""
        return self.loads_delay + self.loads_tput


@dataclass(frozen=True)
class ScenarioCosts:
    """Costs of one weight setting across a whole scenario set.

    The generalization of the old failure-sweep result to composed
    scenarios: outcomes may mix failure kinds and traffic variants, and
    :meth:`by_kind` splits them back out for per-family reporting.

    Attributes:
        evaluations: per-scenario outcomes, in scenario order.
    """

    evaluations: tuple[ScenarioEvaluation, ...]

    def __len__(self) -> int:
        return len(self.evaluations)

    @property
    def total_cost(self) -> CostPair:
        """``K_fail``: component-wise sum over scenarios (Eq. 4 / Eq. 7)."""
        return CostPair.total([e.cost for e in self.evaluations])

    @property
    def violations(self) -> np.ndarray:
        """Per-scenario SLA violation counts."""
        return np.asarray(
            [e.sla.violations for e in self.evaluations], dtype=np.int64
        )

    @property
    def phi_values(self) -> np.ndarray:
        """Per-scenario throughput costs ``Phi_fail,l``."""
        return np.asarray([e.cost.phi for e in self.evaluations])

    def mean_violations(self) -> float:
        """Average SLA violations per failure scenario."""
        if not self.evaluations:
            return 0.0
        return float(self.violations.mean())

    def top_fraction_mean_violations(self, fraction: float = 0.1) -> float:
        """Mean violations over the worst ``fraction`` of scenarios.

        The paper's "average top-10 % SLA violations" focuses on the
        failures with the highest violation counts.
        """
        if not 0 < fraction <= 1:
            raise ValueError("fraction must lie in (0, 1]")
        if not self.evaluations:
            return 0.0
        counts = np.sort(self.violations)[::-1]
        k = max(1, round(fraction * len(counts)))
        return float(counts[:k].mean())

    def kinds(self) -> tuple[str, ...]:
        """Distinct scenario kinds, in first-appearance order.

        Evaluations without a kind tag (plain failure sweeps) report as
        ``"failure"``.
        """
        seen: dict[str, None] = {}
        for evaluation in self.evaluations:
            seen.setdefault(evaluation.kind or "failure")
        return tuple(seen)

    def by_kind(self) -> "dict[str, ScenarioCosts]":
        """Per-kind sub-results, preserving scenario order within each."""
        return {
            kind: ScenarioCosts(
                tuple(
                    e
                    for e in self.evaluations
                    if (e.kind or "failure") == kind
                )
            )
            for kind in self.kinds()
        }


def compact_evaluation(
    evaluation: ScenarioEvaluation,
) -> ScenarioEvaluation:
    """A scalars-only copy of one evaluation: costs and SLA kept.

    Drops every per-arc/per-pair array (loads, delays, utilization) and
    the routings — what remains (``cost``, the all-scalar ``sla``,
    ``variant``, ``kind``) is exactly what cost-folding consumers such
    as Phase 2's ordered sweep read.  The scalars are the originals, so
    folds over compact evaluations are bit-identical to folds over full
    ones.
    """
    if evaluation.loads_delay is None and evaluation.routing_delay is None:
        return evaluation
    return replace(
        evaluation,
        loads_delay=None,
        loads_tput=None,
        arc_delay=None,
        pair_delays=None,
        utilization=None,
        routing_delay=None,
        routing_tput=None,
    )


def _normal_delay_routing(
    reuse: ScenarioEvaluation | None,
) -> ClassRouting | None:
    """The delay routing of a NORMAL ``reuse`` (None for anything else).

    Re-routed scenarios diff their destinations against it to find the
    path-delay columns they may copy.
    """
    if reuse is not None and reuse.scenario.is_normal:
        return reuse.routing_delay
    return None


@dataclass(frozen=True)
class SweepMemoStats:
    """Counters of the costs-only sweep memo (cache_stats-style).

    Attributes:
        hits: sweeps answered from the memo (no dispatch at all).
        misses: sweeps that had to be evaluated (then memoized).
    """

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        """Total memoizable sweep requests."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of sweep requests served from the memo."""
        return self.hits / self.lookups if self.lookups else 0.0

    def __add__(self, other: "SweepMemoStats") -> "SweepMemoStats":
        return SweepMemoStats(
            self.hits + other.hits, self.misses + other.misses
        )


#: Entries kept in the costs-only sweep memo.  Phase 2 cycles through at
#: most ``keep_acceptable_settings`` diversification starts plus the
#: incumbent, so a few dozen compact (scalars-only) entries already
#: serve every repeat; the memo is deliberately small because its values
#: are kept alive for the whole search.
_SWEEP_MEMO_CAPACITY = 32


class DtrEvaluator:
    """Cost oracle for one (network, traffic, configuration) instance."""

    def __init__(
        self,
        network: Network,
        traffic: DtrTraffic,
        config: OptimizerConfig,
        delay_mode: str = "worst",
    ) -> None:
        if traffic.num_nodes != network.num_nodes:
            raise ValueError("traffic and network dimensions differ")
        self._network = network
        self._traffic = traffic
        self._config = config
        self._delay_mode = delay_mode
        self._engine = RoutingEngine(
            network, backend=config.execution.routing_backend
        )
        self._num_evaluations = 0
        self._incremental = config.execution.incremental_routing
        self._sweep_batching = config.execution.sweep_batching
        self._routers: dict[str, IncrementalRouter] = {}
        #: Sibling oracles bound to variant-perturbed traffic, keyed by
        #: variant digest (see :meth:`_variant_evaluator`).
        self._variant_evaluators: dict[str, DtrEvaluator] = {}
        #: Per-variant LRUs of NORMAL evaluations, keyed by setting.
        self._variant_normal_cache: dict[
            str, OrderedDict[tuple[bytes, bytes], ScenarioEvaluation]
        ] = {}
        #: Costs-only sweep memo: (setting key, scenario-set digest) ->
        #: compact :class:`ScenarioCosts`.  Serves repeat
        #: :meth:`evaluate_scenario_costs` sweeps — Phase 2's
        #: worst-first re-sorts revisit the same pool settings — without
        #: re-dispatching any evaluation work.
        self._sweep_memo: "OrderedDict[tuple, ScenarioCosts]" = (
            OrderedDict()
        )
        self._sweep_memo_hits = 0
        self._sweep_memo_misses = 0

    # ------------------------------------------------------------------
    @property
    def network(self) -> Network:
        """The evaluated topology."""
        return self._network

    @property
    def traffic(self) -> DtrTraffic:
        """The evaluated traffic instance."""
        return self._traffic

    @property
    def config(self) -> OptimizerConfig:
        """Cost-model and search parameters."""
        return self._config

    @property
    def engine(self) -> RoutingEngine:
        """The underlying routing engine."""
        return self._engine

    @property
    def delay_mode(self) -> str:
        """Path-delay aggregation mode (``"worst"`` or ``"mean"``)."""
        return self._delay_mode

    @property
    def num_evaluations(self) -> int:
        """How many scenario evaluations this oracle has performed."""
        return self._num_evaluations

    def with_traffic(self, traffic: DtrTraffic) -> "DtrEvaluator":
        """A sibling evaluator for different (e.g. perturbed) traffic."""
        return type(self)(
            self._network, traffic, self._config, self._delay_mode
        )

    def close(self) -> None:
        """Release execution resources (variant sibling oracles)."""
        siblings = list(self._variant_evaluators.values())
        self._variant_evaluators.clear()
        self._variant_normal_cache.clear()
        for sibling in siblings:
            sibling.close()

    # ------------------------------------------------------------------
    def evaluate(
        self,
        setting: WeightSetting,
        scenario: "FailureScenario | Scenario" = NORMAL,
        reuse: ScenarioEvaluation | None = None,
    ) -> ScenarioEvaluation:
        """Cost of one weight setting under one scenario.

        Args:
            setting: the DTR weight setting.
            scenario: failure scenario, or a composed
                :class:`~repro.scenarios.Scenario` (its topology part is
                unwrapped onto the failure path; a traffic variant
                delegates to the variant's sibling oracle).
            reuse: a NORMAL-scenario evaluation *of the same setting*
                under base traffic (with routings attached); classes
                whose shortest-path DAGs avoid every failed arc are not
                re-routed, and with incremental routing the unaffected
                destinations of partially-affected classes reuse their
                distance, mask and path-delay columns too.  Ignored by
                traffic-variant scenarios, which maintain their own
                per-variant reuse.
        """
        kind: str | None = None
        if isinstance(scenario, Scenario):
            if scenario.variant is not None:
                results: "list[ScenarioEvaluation | None]" = [None]
                self._evaluate_variant_group(
                    setting, (0,), [scenario], results
                )
                return results[0]
            kind = scenario.kind
            scenario = scenario.failure
        reuse = self._base_reuse(setting, reuse)
        self._num_evaluations += 1

        hit, routing_d, routing_t, reusable_d = self._shortcut(
            scenario, kind, reuse
        )
        if hit is not None:
            return hit
        if routing_d is None:
            routing_d, reusable_d = self._route_with_reuse(
                "delay",
                setting.delay,
                self._traffic.delay.values,
                scenario,
                _normal_delay_routing(reuse),
            )
        if routing_t is None:
            routing_t, _ = self._route_with_reuse(
                "tput",
                setting.tput,
                self._traffic.throughput.values,
                scenario,
                None,
            )
        total, delays, delay_reuse = self._arc_delays(
            routing_d, routing_t, reusable_d, reuse
        )
        pair_delays = self._engine.path_delays(
            routing_d,
            delays,
            mode=self._delay_mode,
            reuse=delay_reuse,
            memo=self._incremental,
        )
        return self._assemble(
            scenario, kind, routing_d, routing_t, total, delays, pair_delays
        )

    # ------------------------------------------------------------------
    # the stages shared by evaluate() and the batch sweep
    # ------------------------------------------------------------------
    def _base_reuse(
        self, setting: WeightSetting, reuse: ScenarioEvaluation | None
    ) -> ScenarioEvaluation | None:
        """Check the setting; drop a ``reuse`` that cannot seed reuse.

        A variant evaluation was computed under perturbed traffic, so it
        never seeds base-traffic shortcuts.
        """
        if setting.num_arcs != self._network.num_arcs:
            raise ValueError("weight setting does not match the network")
        if reuse is not None and reuse.variant is not None:
            return None
        return reuse

    def _shortcut(
        self,
        scenario: FailureScenario,
        kind: str | None,
        reuse: ScenarioEvaluation | None,
    ) -> tuple:
        """The failed-arc shortcut: reuse the routings the failure misses.

        Returns ``(evaluation, routing_d, routing_t, reusable_d)``.  When
        neither class's DAGs use a failed arc the costs equal
        ``reuse``'s and ``evaluation`` is that copy; otherwise it is None
        and each untouched class's reused routing (None = must be
        routed) comes back, with all delay-class destinations reusable
        when the delay class is untouched.
        """
        if (
            reuse is None
            or not scenario.failed_arcs
            or scenario.removed_nodes
            or reuse.routing_delay is None
            or reuse.routing_tput is None
        ):
            return None, None, None, None
        failed = list(scenario.failed_arcs)
        routing_d = routing_t = reusable_d = None
        if not reuse.routing_delay.used_arcs()[failed].any():
            routing_d = reuse.routing_delay
            reusable_d = frozenset(int(t) for t in routing_d.destinations)
        if not reuse.routing_tput.used_arcs()[failed].any():
            routing_t = reuse.routing_tput
        if routing_d is not None and routing_t is not None:
            # Neither class touched the failed arcs: identical costs.
            hit = replace(
                reuse,
                scenario=scenario,
                routing_delay=None,
                routing_tput=None,
                kind=kind,
            )
            return hit, None, None, None
        return None, routing_d, routing_t, reusable_d

    def _arc_delays(
        self,
        routing_d: ClassRouting,
        routing_t: ClassRouting,
        reusable_d: frozenset[int] | None,
        reuse: ScenarioEvaluation | None,
    ) -> "tuple[np.ndarray, np.ndarray, PathDelayReuse | None]":
        """Total loads, per-arc delays (Eq. 1) and path-delay reuse.

        The reuse names the NORMAL evaluation's delay columns that the
        delay DP may copy for the ``reusable_d`` destinations.
        """
        total = routing_d.loads + routing_t.loads
        delays = arc_delays(
            total,
            self._network.capacity,
            self._network.prop_delay,
            self._config.delay,
        )
        delay_reuse = None
        if reusable_d and reuse is not None and reuse.scenario.is_normal:
            delay_reuse = PathDelayReuse(
                pair_delays=reuse.pair_delays,
                arc_delays=reuse.arc_delay,
                reusable=reusable_d,
            )
        return total, delays, delay_reuse

    def _assemble(
        self,
        scenario: FailureScenario,
        kind: str | None,
        routing_d: ClassRouting,
        routing_t: ClassRouting,
        total: np.ndarray,
        delays: np.ndarray,
        pair_delays: np.ndarray,
    ) -> ScenarioEvaluation:
        """SLA penalty (Eq. 2), Fortz cost and the evaluation record."""
        sla = sla_outcome(pair_delays, routing_d.demands, self._config.sla)
        phi = fortz_cost(
            total, self._network.capacity, include=routing_t.loads > 0.0
        )
        return ScenarioEvaluation(
            scenario=scenario,
            cost=CostPair(sla.cost, phi),
            sla=sla,
            loads_delay=routing_d.loads,
            loads_tput=routing_t.loads,
            arc_delay=delays,
            pair_delays=pair_delays,
            utilization=total / self._network.capacity,
            routing_delay=routing_d,
            routing_tput=routing_t,
            kind=kind,
        )

    # ------------------------------------------------------------------
    # traffic-variant delegation
    # ------------------------------------------------------------------
    def _variant_evaluator(self, variant: TrafficVariant) -> "DtrEvaluator":
        """The sibling oracle for one variant (built on first use)."""
        sibling = self._variant_evaluators.get(variant.digest)
        if sibling is None:
            sibling = self.with_traffic(variant.apply(self._traffic))
            self._variant_evaluators[variant.digest] = sibling
        return sibling

    def _variant_normal(
        self,
        sibling: "DtrEvaluator",
        variant: TrafficVariant,
        setting: WeightSetting,
    ) -> ScenarioEvaluation:
        """The sibling's NORMAL evaluation of ``setting``, LRU-cached.

        One LRU per variant: a failures-major cross product touches
        every variant once per failure, so a cache shared across
        variants would evict each entry right before its next use.
        """
        key = (setting.delay.tobytes(), setting.tput.tobytes())
        cache = self._variant_normal_cache.setdefault(
            variant.digest, OrderedDict()
        )
        entry = cache.get(key)
        if entry is not None:
            cache.move_to_end(key)
            return entry
        entry = sibling.evaluate(setting, NORMAL)
        cache[key] = entry
        while len(cache) > _VARIANT_NORMAL_CACHE:
            cache.popitem(last=False)
        return entry

    def _router_for(
        self, class_id: str, weights: np.ndarray, demands: np.ndarray
    ) -> IncrementalRouter:
        """The per-class incremental router (built on first use).

        A cached router is discarded when it no longer routes the
        requested demands — cannot happen through the public API (an
        evaluator's traffic is fixed; variants get sibling evaluators),
        but a stale router silently corrupting loads is the one failure
        mode worth an explicit guard.
        """
        router = self._routers.get(class_id)
        if router is not None and not router.routes_demands(demands):
            router = None
        if router is None:
            router = IncrementalRouter(
                self._network,
                demands,
                weights,
                plan=self._engine.plan,
                backend=self._config.execution.routing_backend,
            )
            self._routers[class_id] = router
        return router

    def _route_with_reuse(
        self,
        class_id: str,
        weights: np.ndarray,
        demands: np.ndarray,
        scenario: FailureScenario,
        base_routing: ClassRouting | None,
    ) -> tuple[ClassRouting, frozenset[int] | None]:
        """Route one class, reporting which destinations match the base.

        The second element names the destinations whose distance column
        and DAG-mask row are bit-identical to ``base_routing``'s (for
        path-delay column reuse); None when nothing can be claimed.
        Weights and demands are *not* re-validated here: weights come
        from a :class:`WeightSetting` (``>= 1`` enforced on
        construction, arc count checked in :meth:`evaluate`) and demands
        from the traffic instance validated in ``__init__``.
        """
        if not self._incremental:
            return (
                self._engine.route_class(
                    weights, demands, scenario, validate=False
                ),
                None,
            )
        router = self._router_for(class_id, weights, demands)
        router.sync(weights)
        if scenario.is_normal:
            reusable = router.matching_destinations(base_routing)
            return router.routing, reusable
        scenario_routing = router.route_scenario(
            scenario, want_reusable=base_routing is not None
        )
        return scenario_routing.routing, (
            scenario_routing.reusable if base_routing is not None else None
        )

    def evaluate_normal(self, setting: WeightSetting) -> ScenarioEvaluation:
        """Cost under the failure-free scenario."""
        return self.evaluate(setting, NORMAL)

    def evaluate_move(
        self,
        setting: WeightSetting,
        move: Move,
        reuse: ScenarioEvaluation | None = None,
    ) -> ScenarioEvaluation:
        """Failure-free cost of a candidate one :class:`Move` from its base.

        The local-search fast path, bit-identical to
        ``evaluate_normal(setting)``.  ``move`` is the single-arc delta
        that produced ``setting``; with incremental routing it is applied
        to the per-class routers directly (O(affected destinations) —
        often zero, e.g. a weight increase on an off-DAG arc), and
        ``reuse`` — the *base* setting's normal evaluation, as returned
        by the previous ``evaluate_move`` / ``evaluate_normal`` call on
        this evaluator — lets untouched destinations reuse their
        path-delay columns as well.  Both hints are safe against protocol
        drift: the router diffs the requested weights itself and falls
        back to a rebuild, and a base that does not match the router
        state is ignored.
        """
        if self._incremental and move is not None:
            for class_id, arc, old, new in move.deltas:
                router = self._routers.get(class_id)
                if router is not None and router.weight_of(arc) == float(old):
                    router.set_arc_weight(arc, new)
        return self.evaluate(setting, NORMAL, reuse=reuse)

    def revert_move(self, setting: WeightSetting, move: Move) -> None:
        """Restore the routers after a rejected move, in O(affected).

        The counterpart of :meth:`evaluate_move`: ``move.revert(...)``
        restores the *weight setting*; this restores the evaluator's
        incremental router state so the next candidate is again a
        single-arc delta.  A no-op without incremental routing, and safe
        to skip entirely — the routers re-diff on the next evaluation.
        """
        del setting  # the routers track their own weights
        if not self._incremental:
            return
        for class_id, arc, old, new in move.deltas:
            router = self._routers.get(class_id)
            if router is not None and router.weight_of(arc) == float(new):
                router.set_arc_weight(arc, old)

    def evaluate_normal_batch(
        self, settings: "list[WeightSetting] | tuple[WeightSetting, ...]"
    ) -> tuple[ScenarioEvaluation, ...]:
        """Failure-free costs of several settings, in input order.

        The serial implementation is a plain loop; the parallel evaluator
        fans the batch out to its sweep hosts.
        """
        return tuple(self.evaluate_normal(s) for s in settings)

    def evaluate_scenarios(
        self,
        setting: WeightSetting,
        scenarios: Scenarios,
        reuse: ScenarioEvaluation | None = None,
    ) -> ScenarioCosts:
        """Cost of the setting under every scenario of a set.

        The one sweep contract shared by every evaluator (serial,
        caching, parallel — all bit-identical): ``scenarios`` may be a
        :class:`~repro.scenarios.ScenarioSet` or any sequence of
        :class:`~repro.scenarios.Scenario` / :class:`FailureScenario`
        items.  Scenarios are evaluated in enumeration order and costs
        fold in that order, so equal sets produce bit-identical sums.

        Args:
            setting: the DTR weight setting.
            scenarios: scenarios to sweep.
            reuse: optional NORMAL evaluation of ``setting`` under base
                traffic for the unchanged-routing shortcut (computed on
                demand if omitted; traffic-variant scenarios maintain
                their own per-variant reuse instead).

        When :meth:`_use_sweep_batching` says so (the default for
        multi-scenario sweeps, requires incremental routing), the sweep
        runs through the scenario-axis batch engine
        (:mod:`repro.routing.sweep`): scenarios are grouped by
        structural footprint and the outstanding kernel work of a whole
        group — load propagations, path-delay DPs — runs once per group
        instead of once per scenario.  Results are bit-identical to the
        per-scenario loop (pinned by
        ``tests/core/test_sweep_evaluator.py``).
        """
        items = list(scenarios)
        if reuse is None:
            reuse = self.evaluate_normal(setting)
        if self._use_sweep_batching(len(items)):
            return ScenarioCosts(
                tuple(self._sweep_batched(setting, items, reuse))
            )
        return ScenarioCosts(
            tuple(self.evaluate(setting, s, reuse=reuse) for s in items)
        )

    # ------------------------------------------------------------------
    # costs-only sweeps and the sweep memo
    # ------------------------------------------------------------------
    @property
    def sweep_memo_stats(self) -> SweepMemoStats:
        """Counters of the costs-only sweep memo."""
        return SweepMemoStats(self._sweep_memo_hits, self._sweep_memo_misses)

    @property
    def resilience_stats(self) -> "ResilienceStats":
        """Failure/retry/degradation counters (``cache_stats`` style).

        The serial oracle dispatches nothing, so its counters are
        always zero; :class:`~repro.core.parallel.ParallelDtrEvaluator`
        overrides this with its supervisor's live counters.  Exposed
        here so callers can report resilience uniformly across
        evaluator kinds.
        """
        from repro.core.resilience import ResilienceStats

        return ResilienceStats()

    def evaluate_scenario_costs(
        self,
        setting: WeightSetting,
        scenarios: Scenarios,
        reuse: ScenarioEvaluation | None = None,
    ) -> ScenarioCosts:
        """Costs of the setting across a scenario set, scalars only.

        The costs-only counterpart of :meth:`evaluate_scenarios` — same
        per-scenario arithmetic, same fold order, but the returned
        evaluations are :func:`compact_evaluation` copies (costs and SLA
        scalars, no arrays or routings).  Two consequences:

        * a parallel evaluator's workers fold locally and ship scalars
          instead of per-scenario arrays (see
          :class:`~repro.core.parallel.ParallelDtrEvaluator`);
        * results are memoized by ``(setting key, scenario-set
          digest)``, so a repeat sweep of the same setting over the same
          set — Phase 2's worst-first re-sorts do exactly this — is
          answered without dispatching any work.  Memo hits return the
          stored object verbatim, so they are bit-identical by
          construction and counted in :attr:`sweep_memo_stats`, never in
          :attr:`num_evaluations`.
        """
        items = list(scenarios)
        key = (
            setting.key(),
            ScenarioSet(tuple(as_scenario(s) for s in items)).digest,
        )
        cached = self._sweep_memo.get(key)
        if cached is not None:
            self._sweep_memo.move_to_end(key)
            self._sweep_memo_hits += 1
            return cached
        self._sweep_memo_misses += 1
        costs = self._sweep_costs(setting, items, reuse)
        self._sweep_memo[key] = costs
        while len(self._sweep_memo) > _SWEEP_MEMO_CAPACITY:
            self._sweep_memo.popitem(last=False)
        return costs

    def _sweep_costs(
        self,
        setting: WeightSetting,
        items: list,
        reuse: ScenarioEvaluation | None,
    ) -> ScenarioCosts:
        """One costs-only sweep (memo miss); subclasses parallelize."""
        full = self.evaluate_scenarios(setting, items, reuse=reuse)
        return ScenarioCosts(
            tuple(compact_evaluation(e) for e in full.evaluations)
        )

    # ------------------------------------------------------------------
    # scenario-axis batch sweeps
    # ------------------------------------------------------------------
    def _use_sweep_batching(self, num_scenarios: int) -> bool:
        """Whether this sweep runs the batch sweep engine.

        The one place the decision is made — parallel workers and
        quarantined tickets reach it through :meth:`evaluate_scenarios`
        too.  ``sweep_batching="auto"`` (the default) batches every
        sweep of at least :data:`SWEEP_BATCH_MIN_SCENARIOS` scenarios,
        ``"off"`` never.  The engine rides the incremental routers (so
        it requires ``incremental_routing``) and its cross-scenario
        kernels are the vector stack — a forced
        ``routing_backend="python"`` therefore disables batching too,
        keeping that knob's A/B isolation (and its float-weight caveat)
        intact.
        """
        return (
            self._incremental
            and self._config.execution.routing_backend != "python"
            and self._sweep_batching == "auto"
            and num_scenarios >= SWEEP_BATCH_MIN_SCENARIOS
        )

    def _sweep_batched(
        self,
        setting: WeightSetting,
        items: "list[FailureScenario | Scenario]",
        reuse: ScenarioEvaluation | None,
    ) -> "list[ScenarioEvaluation]":
        """Evaluate a sweep through the scenario-axis batch engine.

        Scenarios are bucketed by :func:`repro.routing.sweep.plan_sweep`
        — arc-failure groups run the batch core, variant groups batch
        through their sibling oracle, the rest takes the exact legacy
        per-scenario path — and results reassemble in input order, so
        the returned list is bit-identical to the per-scenario loop.
        """
        reuse = self._base_reuse(setting, reuse)
        results: "list[ScenarioEvaluation | None]" = [None] * len(items)
        plan = plan_sweep(
            items, self._network.num_nodes, self._network.num_arcs
        )
        for idx in plan.legacy:
            results[idx] = self.evaluate(setting, items[idx], reuse=reuse)
        for _, idxs in plan.variant_groups:
            self._evaluate_variant_group(setting, idxs, items, results)
        for group in plan.batch_groups:
            self._evaluate_failure_group(
                setting, group, items, reuse, results
            )
        return results

    def _evaluate_variant_group(
        self,
        setting: WeightSetting,
        idxs: "tuple[int, ...]",
        items: "list",
        results: "list[ScenarioEvaluation | None]",
    ) -> None:
        """Evaluate the scenarios sharing one traffic variant.

        The variant's perturbed traffic gets a dedicated sibling
        evaluator (cached per variant digest), so its incremental
        routers, propagation memos and routing caches are bound to that
        traffic — every reuse key is traffic-variant-aware by
        construction, with no collisions against base-traffic state.
        One sibling lookup and one NORMAL evaluation of the setting
        (small per-variant LRU; it supplies the failed-arc shortcut)
        serve the whole group, and the group's failure halves sweep
        through the sibling's *serial* sweep (never a nested worker
        pool).  :meth:`evaluate` passes a group of one.  Returned
        evaluations carry no routings: they belong to the sibling and
        must not seed base-traffic reuse.
        """
        variant = items[idxs[0]].variant
        assert variant is not None
        self._num_evaluations += len(idxs)
        sibling = self._variant_evaluator(variant)
        outcomes: dict[int, ScenarioEvaluation] = {}
        fail_idx = [
            idx for idx in idxs if not items[idx].failure.is_normal
        ]
        for idx in idxs:
            if items[idx].failure.is_normal:
                outcomes[idx] = sibling.evaluate(
                    setting, items[idx].failure
                )
        if fail_idx:
            v_reuse = self._variant_normal(sibling, variant, setting)
            costs = DtrEvaluator.evaluate_scenarios(
                sibling,
                setting,
                [items[idx].failure for idx in fail_idx],
                reuse=v_reuse,
            )
            outcomes.update(zip(fail_idx, costs.evaluations))
        for idx in idxs:
            results[idx] = replace(
                outcomes[idx],
                variant=variant,
                kind=items[idx].kind,
                routing_delay=None,
                routing_tput=None,
            )

    def _batch_route_lookup(
        self,
        class_id: str,
        scenario: FailureScenario,
        weights: np.ndarray,
    ) -> ClassRouting | None:
        """Routing-cache probe hook of the batch sweep path (none here)."""
        del class_id, scenario, weights
        return None

    def _batch_route_store(
        self,
        class_id: str,
        scenario: FailureScenario,
        weights: np.ndarray,
        routing: ClassRouting,
    ) -> None:
        """Routing-cache store hook of the batch sweep path (no-op here)."""
        del class_id, scenario, weights, routing

    def _route_batch(
        self,
        class_id: str,
        weights: np.ndarray,
        demands: np.ndarray,
        failures: "list[FailureScenario]",
    ) -> tuple:
        """Route one class under a group's failures in one batch.

        The batch counterpart of :meth:`_route_with_reuse`: the
        incremental router routes every failure through
        :func:`~repro.routing.sweep.route_scenario_batch`, and each
        routing is stored through the routing-cache hook.  Returns the
        per-failure scenario routings and the load-batch handoffs.
        """
        router = self._router_for(class_id, weights, demands)
        router.sync(weights)
        routings, handoffs = route_scenario_batch(router, failures)
        for failure, scenario_routing in zip(failures, routings):
            self._batch_route_store(
                class_id, failure, weights, scenario_routing.routing
            )
        return routings, handoffs

    def _evaluate_failure_group(
        self,
        setting: WeightSetting,
        idxs: "tuple[int, ...]",
        items: "list",
        reuse: ScenarioEvaluation | None,
        results: "list[ScenarioEvaluation | None]",
    ) -> None:
        """Evaluate one batch group of plain arc-failure scenarios.

        Shares :meth:`evaluate`'s failed-arc shortcut and cost assembly,
        and runs every other stage once per group on arrays: one
        :meth:`_route_batch` per class, one ``arc_delays`` call on the
        ``(K, A)`` stack of total loads, one scatter of the reusable
        NORMAL path-delay columns and one
        :func:`~repro.routing.sweep.flush_delay_batch` for the rest.
        Every stage replays the identical floats, so each scenario's
        evaluation is bit-identical to the per-scenario path.  Exact
        duplicates (same failure, same kind) share one evaluation.
        """
        self._num_evaluations += len(idxs)
        slots: "dict[tuple, list[int]]" = {}
        for idx in idxs:
            item = items[idx]
            if isinstance(item, Scenario):
                key = (item.failure, item.kind)
            else:
                key = (item, None)
            slots.setdefault(key, []).append(idx)

        # Stage 1: the failed-arc shortcut and the routing-cache probe,
        # per unique failure; what neither answers goes to the routers.
        done: "dict[tuple, ScenarioEvaluation]" = {}
        resolved: "dict[tuple, list]" = {}
        route_d: "list[tuple]" = []
        route_t: "list[tuple]" = []
        for key in slots:
            hit, routing_d, routing_t, _ = self._shortcut(
                key[0], key[1], reuse
            )
            if hit is not None:
                done[key] = hit
                continue
            entry = resolved[key] = [routing_d, routing_t]
            for pos, class_id, weights, queue in (
                (0, "delay", setting.delay, route_d),
                (1, "tput", setting.tput, route_t),
            ):
                if entry[pos] is not None:
                    continue
                entry[pos] = self._batch_route_lookup(
                    class_id, key[0], weights
                )
                if entry[pos] is None:
                    queue.append(key)
                else:
                    # A hit is re-stored — an incremental
                    # (dominated-weights) hit installs the exact key —
                    # like the caching path's get-put.
                    self._batch_route_store(
                        class_id, key[0], weights, entry[pos]
                    )

        # Stage 2: batch-route the rest per class.  The delay class's
        # load-batch schedules are kept: the delay DPs of the same
        # columns replay them below.
        handoffs: "list" = []
        if route_d:
            routings, handoffs = self._route_batch(
                "delay",
                setting.delay,
                self._traffic.delay.values,
                [key[0] for key in route_d],
            )
            for key, scenario_routing in zip(route_d, routings):
                resolved[key][0] = scenario_routing.routing
        if route_t:
            routings, _ = self._route_batch(
                "tput",
                setting.tput,
                self._traffic.throughput.values,
                [key[0] for key in route_t],
            )
            for key, scenario_routing in zip(route_t, routings):
                resolved[key][1] = scenario_routing.routing

        if resolved:
            self._group_delays_and_costs(
                resolved, route_d, handoffs, reuse, done
            )
        for key, evaluation in done.items():
            for idx in slots[key]:
                results[idx] = evaluation

    def _group_delays_and_costs(
        self,
        resolved: "dict[tuple, list]",
        route_d: "list[tuple]",
        handoffs: list,
        reuse: ScenarioEvaluation | None,
        done: "dict[tuple, ScenarioEvaluation]",
    ) -> None:
        """Stages 3-4 of a failure group: delays, then cost assembly.

        The ``K`` routed scenarios' arc delays come from one
        ``arc_delays`` call on the ``(K, A)`` total-load stack.  A path
        delay column is a pure function of its destination, mask row
        and the delays of the masked arcs (the distance column only
        orders the DP), so every cell whose mask row equals the NORMAL
        routing's and whose masked arcs kept their NORMAL delays takes
        the NORMAL column, in one scatter; the rest run through
        :func:`~repro.routing.sweep.flush_delay_batch`.
        """
        keys = list(resolved)
        routings_d = [resolved[key][0] for key in keys]
        routings_t = [resolved[key][1] for key in keys]
        total = np.stack([r.loads for r in routings_d]) + np.stack(
            [r.loads for r in routings_t]
        )
        delays = arc_delays(
            total,
            self._network.capacity,
            self._network.prop_delay,
            self._config.delay,
        )
        masks = np.stack([r.masks for r in routings_d])
        dests = routings_d[0].destinations
        n = self._network.num_nodes
        out = np.full((len(keys), n, n), np.nan)
        base = _normal_delay_routing(reuse)
        if base is None:
            pending = np.ones(masks.shape[:2], dtype=bool)
        else:
            stale = masks != base.masks
            stale |= base.masks & (delays != reuse.arc_delay)[:, None, :]
            pending = stale.any(axis=2)
            rows, pos = np.nonzero(~pending)
            ts = dests[pos]
            out[rows, :, ts] = reuse.pair_delays[:, ts].T
        # Load-batch handoffs name (route_d index, destination) cells;
        # resolve them to task rows.
        task_of = {key: k for k, key in enumerate(keys)}
        route_task = np.asarray(
            [task_of[key] for key in route_d], dtype=np.intp
        )
        shared = []
        for handoff in handoffs:
            cells = np.asarray(handoff.cells, dtype=np.intp)
            shared.append(
                (route_task[cells[:, 0]], cells[:, 1], handoff.schedule)
            )
        flush_delay_batch(
            self._engine,
            self._delay_mode,
            dests,
            masks,
            np.stack([r.dist for r in routings_d]),
            delays,
            pending,
            out,
            shared,
        )
        for k, key in enumerate(keys):
            done[key] = self._assemble(
                key[0],
                key[1],
                routings_d[k],
                routings_t[k],
                total[k],
                delays[k],
                out[k],
            )
