"""Probabilistic failure model (the paper's Section VI extension).

"A probabilistic failure model can be formulated as part of a robust
optimization framework, and we believe that the critical link technique
developed in this paper can be extended to that model as well."

This module implements that extension:

* :class:`WeightedFailureSet` attaches a probability to every scenario;
* the robust objective becomes the *expected* failure cost
  ``K_fail = sum_l p_l <Lambda_fail,l, Phi_fail,l>``;
* criticality is weighted by scenario probability — a link whose failure
  is twice as likely is twice as costly to ignore — and Algorithm 1 then
  runs unchanged on the weighted values;
* :func:`probabilistic_robust_optimize` plugs the weighted objective
  into the Phase-2 search loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.criticality import CriticalityEstimate
from repro.core.evaluation import DtrEvaluator, ScenarioEvaluation
from repro.core.lexicographic import CostPair
from repro.core.local_search import (
    DiversificationController,
    RecordedSetting,
    SearchStats,
)
from repro.core.perturbation import random_phase2_move, scramble_some_arcs
from repro.core.phase2 import RobustConstraints
from repro.core.selection import CriticalSelection, select_critical_links
from repro.core.weights import WeightSetting
from repro.routing.network import Network
from repro.scenarios.scenario import Scenario, ScenarioSet


@dataclass(frozen=True)
class WeightedFailureSet:
    """Failure scenarios with per-scenario probabilities.

    Attributes:
        scenarios: the scenarios, in enumeration order.
        probabilities: matching probabilities (normalized to sum to 1).
    """

    scenarios: tuple[Scenario, ...]
    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.scenarios) != len(self.probabilities):
            raise ValueError("one probability per scenario required")
        if not self.scenarios:
            raise ValueError("need at least one scenario")
        probs = np.asarray(self.probabilities, dtype=np.float64)
        if np.any(probs < 0) or probs.sum() <= 0:
            raise ValueError("probabilities must be non-negative, sum > 0")
        object.__setattr__(
            self,
            "probabilities",
            tuple(float(p) for p in probs / probs.sum()),
        )

    def __len__(self) -> int:
        return len(self.scenarios)

    def __iter__(self):
        return iter(zip(self.scenarios, self.probabilities))

    @classmethod
    def from_failure_set(
        cls, failures: ScenarioSet, probabilities: np.ndarray
    ) -> "WeightedFailureSet":
        """Attach probabilities to the scenarios of a set, in order."""
        return cls(
            scenarios=tuple(failures.scenarios),
            probabilities=tuple(float(p) for p in probabilities),
        )

    def restricted_to_arcs(self, arc_ids) -> "WeightedFailureSet":
        """Scenarios touching the given arcs, with renormalized weights."""
        wanted = set(int(a) for a in arc_ids)
        kept = [
            (s, p)
            for s, p in zip(self.scenarios, self.probabilities)
            if wanted.intersection(s.failed_arcs)
        ]
        if not kept:
            raise ValueError("restriction removes every scenario")
        return WeightedFailureSet(
            scenarios=tuple(s for s, _ in kept),
            probabilities=tuple(p for _, p in kept),
        )


def length_proportional_probabilities(
    network: Network, failures: ScenarioSet
) -> np.ndarray:
    """Failure probabilities proportional to fiber length.

    Long-haul links see more backhoes: the standard availability model
    makes per-link failure probability proportional to span length,
    which we proxy with propagation delay.
    """
    lengths = np.asarray(
        [
            float(network.prop_delay[list(s.failed_arcs)].max())
            if s.failed_arcs
            else 0.0
            for s in failures
        ]
    )
    total = lengths.sum()
    if total <= 0:
        return np.full(len(failures), 1.0 / len(failures))
    return lengths / total


def uniform_probabilities(failures: ScenarioSet) -> np.ndarray:
    """The uniform failure distribution (the deterministic model)."""
    return np.full(len(failures), 1.0 / len(failures))


def expected_failure_cost(
    evaluator: DtrEvaluator,
    setting: WeightSetting,
    failures: WeightedFailureSet,
    reuse: ScenarioEvaluation | None = None,
) -> CostPair:
    """Expected cost ``sum_l p_l <Lambda_l, Phi_l>`` over the scenarios."""
    lam = 0.0
    phi = 0.0
    for scenario, probability in failures:
        outcome = evaluator.evaluate(setting, scenario, reuse=reuse)
        lam += probability * outcome.cost.lam
        phi += probability * outcome.cost.phi
    return CostPair(lam, phi)


def weighted_criticality(
    estimate: CriticalityEstimate,
    network: Network,
    failures: ScenarioSet,
    probabilities: np.ndarray,
) -> CriticalityEstimate:
    """Scale per-arc criticality by the arc's failure probability.

    Every arc inherits the probability of the (unique single-failure)
    scenario that fails it; arcs in no scenario keep weight zero.
    """
    arc_probability = np.zeros(estimate.num_arcs)
    for scenario, probability in zip(failures, probabilities):
        for arc in scenario.failed_arcs:
            arc_probability[arc] = probability
    scale = arc_probability * len(failures)  # 1.0 under uniform weights
    return CriticalityEstimate(
        rho_lam=estimate.rho_lam * scale,
        rho_phi=estimate.rho_phi * scale,
        tail_lam=estimate.tail_lam * scale,
        tail_phi=estimate.tail_phi * scale,
        sample_counts=estimate.sample_counts,
    )


def select_probabilistic_critical_links(
    estimate: CriticalityEstimate,
    network: Network,
    failures: ScenarioSet,
    probabilities: np.ndarray,
    target_size: int,
) -> CriticalSelection:
    """Algorithm 1 on probability-weighted criticalities."""
    weighted = weighted_criticality(
        estimate, network, failures, probabilities
    )
    return select_critical_links(weighted, target_size)


@dataclass(frozen=True)
class ProbabilisticRobustResult:
    """Outcome of the probabilistic robust search.

    Attributes:
        best_setting: the robust weight setting.
        expected_kfail: its expected failure cost over the search set.
        normal_cost: its failure-free cost.
        stats: search counters.
    """

    best_setting: WeightSetting
    expected_kfail: CostPair
    normal_cost: CostPair
    stats: SearchStats


def probabilistic_robust_optimize(
    evaluator: DtrEvaluator,
    failures: WeightedFailureSet,
    starts: tuple[RecordedSetting, ...],
    constraints: RobustConstraints,
    rng: np.random.Generator,
) -> ProbabilisticRobustResult:
    """Phase-2 local search minimizing the *expected* failure cost.

    Mirrors :func:`repro.core.phase2.run_phase2` with the weighted-sum
    objective (lexicographic pruning does not apply cleanly to weighted
    sums with reordering, so candidates are evaluated in full — the
    restriction to critical scenarios is what keeps this affordable).
    """
    if not starts:
        raise ValueError("need at least one starting setting")
    config = evaluator.config
    wp = config.weights
    sp = config.search
    num_arcs = evaluator.network.num_arcs
    stats = SearchStats()

    def objective(setting: WeightSetting, reuse=None) -> CostPair:
        stats.evaluations += len(failures)
        return expected_failure_cost(evaluator, setting, failures, reuse)

    current = starts[0].setting.copy()
    cur_kfail = objective(current)
    best_setting = current.copy()
    best_kfail = cur_kfail

    controller = DiversificationController(
        interval=sp.phase2_diversification_interval,
        min_rounds=sp.phase2_diversifications,
        cutoff=sp.improvement_cutoff,
        cap_factor=sp.round_iteration_cap_factor,
    )
    round_start = best_kfail
    sweep = max(1, round(sp.arcs_per_iteration_fraction * num_arcs))
    next_start = 1

    while stats.iterations < sp.max_iterations:
        improved = False
        for arc in rng.permutation(num_arcs)[:sweep]:
            move = random_phase2_move(current, int(arc), wp, rng)
            if not move.changes_anything:
                continue
            move.apply(current)
            normal = evaluator.evaluate_normal(current)
            stats.evaluations += 1
            if not constraints.satisfied_by(normal.cost):
                move.revert(current)
                continue
            cand = objective(current, reuse=normal)
            if cand.is_better_than(cur_kfail):
                cur_kfail = cand
                improved = True
                stats.accepted_moves += 1
                if cand.is_better_than(best_kfail):
                    best_kfail = cand
                    best_setting = current.copy()
            else:
                move.revert(current)
        stats.iterations += 1
        if controller.note_iteration(improved):
            from repro.core.lexicographic import relative_improvement

            controller.note_diversification(
                relative_improvement(round_start, best_kfail)
            )
            stats.diversifications += 1
            if controller.should_stop():
                break
            round_start = best_kfail
            base = starts[next_start % len(starts)]
            candidate = scramble_some_arcs(base.setting, wp, rng)
            normal = evaluator.evaluate_normal(candidate)
            stats.evaluations += 1
            if constraints.satisfied_by(normal.cost):
                current = candidate
            else:
                current = base.setting.copy()
            cur_kfail = objective(current)
            next_start += 1

    return ProbabilisticRobustResult(
        best_setting=best_setting,
        expected_kfail=best_kfail,
        normal_cost=evaluator.evaluate_normal(best_setting).cost,
        stats=stats,
    )
