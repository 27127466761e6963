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
``config.execution.incremental_routing`` is on (the default): routers
follow every setting through ``IncrementalRouter.sync``, so a move
(:meth:`DtrEvaluator.trial`, the local searches' one seam) or a failure
scenario re-routes only the destinations the delta can affect, a
rolled-back move restores the routers' delta journals, a move trial
re-prices only the scenarios its move can change
(:meth:`MoveTrial.evaluate`, given the incumbent's
:class:`ScenarioRecord` per scenario), and
every path-delay column whose mask row and masked arc delays equal the
``reuse`` evaluation's is copied from it instead of re-propagated
(:meth:`~repro.routing.engine.PathDelayReuse.fill`, the one reuse rule
of the per-scenario, move and batch paths).  All of it is bit-identical
to from-scratch evaluation; tests pin the parity.

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
from dataclasses import dataclass, field, replace
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
from repro.routing.engine import (
    BatchHandoff,
    ClassRouting,
    PathDelayReuse,
    RoutingEngine,
)
from repro.routing.failures import NORMAL, FailureScenario, disabled_arc_mask
from repro.routing.incremental import IncrementalRouter, affected_destinations
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
    as an audit's costs-only sweep read.  The scalars are the originals, so
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


def _delay_reuse(reuse: ScenarioEvaluation | None) -> PathDelayReuse | None:
    """The delay columns of a NORMAL ``reuse`` (None for anything else)."""
    if (
        reuse is None
        or not reuse.scenario.is_normal
        or reuse.routing_delay is None
    ):
        return None
    return PathDelayReuse(
        pair_delays=reuse.pair_delays,
        arc_delays=reuse.arc_delay,
        destinations=reuse.routing_delay.destinations,
        masks=reuse.routing_delay.masks,
    )


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


@dataclass(frozen=True)
class ScenarioRecord:
    """One scenario's evaluation of a setting, with its class routings.

    What a move trial needs of the incumbent to prove a scenario's
    routings unmoved (:meth:`MoveTrial.evaluate`).

    Attributes:
        evaluation: the setting's evaluation under the scenario.
        routings: its ``(delay, throughput)`` class routings under the
            scenario; None under a traffic variant, whose routings
            belong to a sibling oracle (such a scenario is always
            re-evaluated).
    """

    evaluation: ScenarioEvaluation
    routings: "tuple[ClassRouting, ClassRouting] | None"

    @classmethod
    def of(
        cls, evaluation: ScenarioEvaluation, normal: ScenarioEvaluation
    ) -> "ScenarioRecord":
        """The record of an in-process evaluation made with ``normal``.

        An in-process base-traffic evaluation without routings is a
        failed-arc shortcut hit (:meth:`DtrEvaluator._shortcut`), so its
        routings are the ``normal`` (``reuse``) evaluation's.  A sweep
        host strips the routings it returns, so its evaluations must
        never be recorded: their None is not a shortcut's.
        """
        if evaluation.variant is not None:
            return cls(evaluation, None)
        if evaluation.routing_delay is None:
            return cls(evaluation, (normal.routing_delay, normal.routing_tput))
        return cls(
            evaluation, (evaluation.routing_delay, evaluation.routing_tput)
        )


@dataclass(eq=False)
class MoveTrial:
    """An open move (:meth:`DtrEvaluator.trial`), to be closed once.

    Attributes:
        evaluation: the moved setting's failure-free evaluation.
        records: the moved setting's :class:`ScenarioRecord` of every
            scenario :meth:`evaluate` priced.
    """

    evaluation: ScenarioEvaluation
    _evaluator: "DtrEvaluator"
    _setting: WeightSetting
    _move: Move
    _incumbent: "dict[object, ScenarioRecord] | None" = None
    records: "dict[object, ScenarioRecord]" = field(default_factory=dict)

    def evaluate(self, scenario) -> "tuple[ScenarioEvaluation, bool]":
        """The moved setting under one scenario, reusing the incumbent.

        A class's routing under the scenario is provably the
        incumbent's (its record, passed to :meth:`DtrEvaluator.trial`)
        when the move leaves the class weight alone, when the moved arc
        is dead under the scenario (:func:`~repro.routing.failures.
        disabled_arc_mask`), or when the router's affected-destination
        test (:func:`~repro.routing.incremental.affected_destinations`)
        flags no destination of the incumbent's scenario routing.  With
        both classes unmoved the incumbent's evaluation is returned
        verbatim — loads, delays, SLA and Φ are functions of the two
        routings; with one, :meth:`DtrEvaluator.evaluate` takes that
        routing and routes only the other class.  A scenario without a
        record or without base-traffic routings is evaluated in full.

        Returns:
            ``(evaluation, verbatim)``: the evaluation, and whether it
            is the incumbent's.
        """
        incumbent = (
            None if self._incumbent is None else self._incumbent.get(scenario)
        )
        known: tuple = (None, None)
        if incumbent is not None and incumbent.routings is not None:
            known = self._unmoved(scenario, incumbent.routings)
            if known[0] is not None and known[1] is not None:
                self.records[scenario] = incumbent
                return incumbent.evaluation, True
        evaluation = self._evaluator.evaluate(
            self._setting, scenario, reuse=self.evaluation, known=known
        )
        self.records[scenario] = ScenarioRecord.of(evaluation, self.evaluation)
        return evaluation, False

    def _unmoved(
        self, scenario, routings: "tuple[ClassRouting, ClassRouting]"
    ) -> tuple:
        """Each class's incumbent routing the move cannot change, or None."""
        move = self._move
        arc = move.arc
        network = self._evaluator.network
        if isinstance(scenario, Scenario):
            scenario = scenario.failure
        dead = bool(disabled_arc_mask(network, scenario)[arc])
        u, v = network.arc_src[arc], network.arc_dst[arc]
        unmoved = []
        for routing, old, new in (
            (routings[0], move.old_delay, move.new_delay),
            (routings[1], move.old_tput, move.new_tput),
        ):
            dests = routing.destinations
            if (
                old == new
                or dead
                or not affected_destinations(
                    routing.masks,
                    routing.dist[u, dests],
                    routing.dist[v, dests],
                    arc,
                    float(old),
                    float(new),
                ).any()
            ):
                unmoved.append(routing)
            else:
                unmoved.append(None)
        return tuple(unmoved)

    def commit(self) -> None:
        """Keep the move: the setting and the routers stay moved."""
        self._evaluator._close_trial(self)

    def rollback(self) -> None:
        """Undo the move on the setting and the routers."""
        self._evaluator._close_trial(self)
        self._evaluator.revert_move(self._setting, self._move)


#: Entries kept in the costs-only sweep memo: a few dozen compact
#: (scalars-only) entries serve the repeats of a short list of settings
#: (the memo is deliberately small because its values stay alive).
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
        self._open_trial: "MoveTrial | None" = None

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
        known: tuple = (None, None),
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
                distance and mask columns too, and every delay column
                whose mask row and masked arc delays are unchanged is
                copied.  Ignored by traffic-variant scenarios, which
                maintain their own per-variant reuse.
            known: the ``(delay, throughput)`` class routings of
                ``setting`` under ``scenario`` already known (None:
                route that class); they fill the slots the failed-arc
                shortcut leaves empty.  :meth:`MoveTrial.evaluate`
                passes the incumbent's routing of a class it proved the
                move cannot change.
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

        hit, routing_d, routing_t = self._shortcut(scenario, kind, reuse)
        if hit is not None:
            return hit
        if routing_d is None:
            routing_d = known[0]
        if routing_t is None:
            routing_t = known[1]
        # The from-scratch path keeps its delay DPs independent: it
        # copies NORMAL columns only into a routing it did not re-route.
        delay_reuse = (
            _delay_reuse(reuse)
            if self._incremental or routing_d is not None
            else None
        )
        handoffs = ()
        if routing_d is None:
            routing_d, handoffs = self._route(
                "delay", setting.delay, self._traffic.delay.values, scenario
            )
        if routing_t is None:
            routing_t, _ = self._route(
                "tput",
                setting.tput,
                self._traffic.throughput.values,
                scenario,
            )
        total, delays = self._arc_delays(routing_d, routing_t)
        pair_delays = self._engine.path_delays(
            routing_d,
            delays,
            mode=self._delay_mode,
            reuse=delay_reuse,
            memo=self._incremental,
            handoffs=handoffs,
        )
        sla = sla_outcome(pair_delays, routing_d.demands, self._config.sla)
        phi = fortz_cost(
            total, self._network.capacity, include=routing_t.loads > 0.0
        )
        return self._assemble(
            scenario, kind, routing_d, routing_t, total, delays,
            pair_delays, sla, phi,
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

        Returns ``(evaluation, routing_d, routing_t)``.  When neither
        class's DAGs use a failed arc the costs equal ``reuse``'s and
        ``evaluation`` is that copy; otherwise it is None and each
        untouched class's reused routing (None = must be routed) comes
        back.
        """
        if (
            reuse is None
            or not scenario.failed_arcs
            or scenario.removed_nodes
            or reuse.routing_delay is None
            or reuse.routing_tput is None
        ):
            return None, None, None
        failed = list(scenario.failed_arcs)
        routing_d = routing_t = None
        if not reuse.routing_delay.used_arcs()[failed].any():
            routing_d = reuse.routing_delay
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
            return hit, None, None
        return None, routing_d, routing_t

    def _arc_delays(
        self, routing_d: ClassRouting, routing_t: ClassRouting
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Total loads and per-arc delays (Eq. 1)."""
        total = routing_d.loads + routing_t.loads
        delays = arc_delays(
            total,
            self._network.capacity,
            self._network.prop_delay,
            self._config.delay,
        )
        return total, delays

    def _assemble(
        self,
        scenario: FailureScenario,
        kind: str | None,
        routing_d: ClassRouting,
        routing_t: ClassRouting,
        total: np.ndarray,
        delays: np.ndarray,
        pair_delays: np.ndarray,
        sla: SlaOutcome,
        phi: float,
    ) -> ScenarioEvaluation:
        """The evaluation record of a scenario's SLA penalty (Eq. 2),
        ``sla``, and Fortz cost, ``phi``."""
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

    def _route(
        self,
        class_id: str,
        weights: np.ndarray,
        demands: np.ndarray,
        scenario: FailureScenario,
    ) -> "tuple[ClassRouting, tuple[BatchHandoff, ...]]":
        """Route one class on the per-scenario path.

        Returns the routing and the load-schedule handoffs its delay DP
        may replay (empty from scratch).  Weights and demands are *not*
        re-validated here: weights come from a :class:`WeightSetting`
        (``>= 1`` enforced on construction, arc count checked in
        :meth:`evaluate`) and demands from the traffic instance
        validated in ``__init__``.
        """
        if not self._incremental:
            return (
                self._engine.route_class(
                    weights, demands, scenario, validate=False
                ),
                (),
            )
        router = self._router_for(class_id, weights, demands)
        router.sync(weights)
        if scenario.is_normal:
            return router.routing, ()
        scenario_routing = router.route_scenario(scenario)
        return scenario_routing.routing, scenario_routing.handoffs

    def evaluate_normal(self, setting: WeightSetting) -> ScenarioEvaluation:
        """Cost under the failure-free scenario."""
        return self.evaluate(setting, NORMAL)

    def trial(
        self,
        setting: WeightSetting,
        move: Move,
        reuse: ScenarioEvaluation | None = None,
        records: "dict[object, ScenarioRecord] | None" = None,
    ) -> MoveTrial:
        """Open a trial of ``move`` on ``setting``: the one move protocol.

        :meth:`evaluate_move` (``reuse``: the base's normal evaluation)
        opens it; the caller may evaluate the moved setting further —
        per scenario through :meth:`MoveTrial.evaluate`, which reuses
        the base's scenario ``records`` wherever the move provably
        changes nothing — then closes it once: ``commit()`` keeps the
        move, ``rollback()`` restores setting and routers
        (:meth:`revert_move`; each router restores its delta journal).
        """
        if self._open_trial is not None:
            raise RuntimeError("a move trial is already open")
        evaluation = self.evaluate_move(setting, move, reuse=reuse)
        self._open_trial = MoveTrial(evaluation, self, setting, move, records)
        return self._open_trial

    def _close_trial(self, trial: MoveTrial) -> None:
        if self._open_trial is not trial:
            raise RuntimeError("this move trial is already closed")
        self._open_trial = None

    def evaluate_move(
        self,
        setting: WeightSetting,
        move: Move,
        reuse: ScenarioEvaluation | None = None,
    ) -> ScenarioEvaluation:
        """The trial's first half: apply ``move``, sync, evaluate.

        The routers sync before any routing-cache probe, so a hit leaves
        none behind.
        """
        move.apply(setting)
        self._follow(setting)
        return self.evaluate(setting, NORMAL, reuse=reuse)

    def revert_move(self, setting: WeightSetting, move: Move) -> None:
        """The trial's rollback half: undo ``move``, sync the routers."""
        move.revert(setting)
        self._follow(setting)

    def _follow(self, setting: WeightSetting) -> None:
        """Sync every built router to ``setting``."""
        pairs = (("delay", setting.delay), ("tput", setting.tput))
        for class_id, weights in pairs:
            router = self._routers.get(class_id)
            if router is not None:
                router.sync(weights)

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

    def _evaluate_failure_group(
        self,
        setting: WeightSetting,
        idxs: "tuple[int, ...]",
        items: "list",
        reuse: ScenarioEvaluation | None,
        results: "list[ScenarioEvaluation | None]",
    ) -> None:
        """Evaluate one batch group of plain arc-failure scenarios.

        Shares :meth:`evaluate`'s failed-arc shortcut, NORMAL-column
        reuse rule and evaluation record, and runs every other stage
        once per group on arrays: one
        :func:`~repro.routing.sweep.route_scenario_batch` per class, one
        ``arc_delays`` call on the ``(K, A)`` stack of total loads, one
        :meth:`~repro.routing.engine.PathDelayReuse.fill` and one
        :func:`~repro.routing.sweep.flush_delay_batch` for the rest,
        then one stacked ``sla_outcome`` and one stacked ``fortz_cost``
        call.  Every stage replays the identical floats, so each scenario's
        evaluation is bit-identical to the per-scenario path.  No memo
        or routing cache is probed or filled: a batch sweep prices each
        setting once.  Exact duplicates (same failure, same kind) share
        one evaluation.
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

        # Stage 1: the failed-arc shortcut, per unique failure; what it
        # does not answer goes to the routers.
        done: "dict[tuple, ScenarioEvaluation]" = {}
        resolved: "dict[tuple, list]" = {}
        for key in slots:
            hit, routing_d, routing_t = self._shortcut(key[0], key[1], reuse)
            if hit is not None:
                done[key] = hit
            else:
                resolved[key] = [routing_d, routing_t]

        # Stage 2: batch-route the rest per class.  The delay class's
        # load-batch schedules are kept: the delay DPs of the same
        # columns replay them below.
        route_d: "list[tuple]" = []
        handoffs: "list[BatchHandoff]" = []
        for pos, class_id, weights, demands in (
            (0, "delay", setting.delay, self._traffic.delay.values),
            (1, "tput", setting.tput, self._traffic.throughput.values),
        ):
            queue = [k for k, pair in resolved.items() if pair[pos] is None]
            if not queue:
                continue
            router = self._router_for(class_id, weights, demands)
            router.sync(weights)
            routings, batch_handoffs = route_scenario_batch(
                router, [key[0] for key in queue]
            )
            for key, scenario_routing in zip(queue, routings):
                resolved[key][pos] = scenario_routing.routing
            if pos == 0:
                route_d, handoffs = queue, batch_handoffs

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
        ``arc_delays`` call on the ``(K, A)`` total-load stack.  Every
        cell the NORMAL-column reuse rule admits takes the NORMAL column
        (:meth:`~repro.routing.engine.PathDelayReuse.fill`, the rule
        ``path_delays`` applies per scenario); the rest run through
        :func:`~repro.routing.sweep.flush_delay_batch`.  The costs come
        from one ``sla_outcome`` call on the ``(K, N, N)`` pair-delay
        stack and one ``fortz_cost`` call on the total-load stack, each
        row bit-identical to the one-row call :meth:`evaluate` makes.
        """
        keys = list(resolved)
        routings_d = [resolved[key][0] for key in keys]
        routings_t = [resolved[key][1] for key in keys]
        loads_t = np.stack([r.loads for r in routings_t])
        total = np.stack([r.loads for r in routings_d]) + loads_t
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
        delay_reuse = _delay_reuse(reuse)
        if delay_reuse is None:
            pending = np.ones(masks.shape[:2], dtype=bool)
        else:
            pending = delay_reuse.fill(dests, masks, delays, out)
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
        # Batch groups remove no nodes: every scenario routes the same
        # delay-class demands.
        slas = sla_outcome(out, routings_d[0].demands, self._config.sla)
        phis = fortz_cost(
            total,
            self._network.capacity,
            include=loads_t > 0.0,
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
                slas[k],
                phis[k],
            )
