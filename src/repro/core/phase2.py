"""Phase 2: robust optimization over a scenario set (Section IV-A).

Starting from the acceptable weight settings recorded in Phase 1, Phase 2
locally searches for the setting minimizing the compounded scenario cost
``K_fail = <Lambda_fail, Phi_fail>`` (Eq. 4 — or Eq. 7 when the failure
set is restricted to critical links), subject to the normal-condition
constraints of Eqs. (5)-(6): the delay cost must stay at ``Lambda*`` and
the throughput cost within ``(1 + chi) Phi*``.

The search is scenario-agnostic: it accepts any
:class:`~repro.scenarios.ScenarioSet` — the paper's single-link set, an
SRLG or regional family, traffic surges, failure×surge cross products.

Candidate evaluation is the hot path: the normal-scenario constraint
check runs first (one evaluation, through the evaluator's incremental
:meth:`~repro.core.evaluation.DtrEvaluator.evaluate_move` fast path)
and the per-scenario failure sweep is abandoned as soon as its partial
lexicographic cost can no longer beat the incumbent (costs only grow as
scenarios accumulate).  Rejected moves restore the evaluator's
incremental router state via
:meth:`~repro.core.evaluation.DtrEvaluator.revert_move` in O(affected
destinations).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import OptimizerConfig
from repro.core.checkpoint import CheckpointManager
from repro.core.evaluation import (
    DtrEvaluator,
    ScenarioCosts,
    ScenarioEvaluation,
)
from repro.core.lexicographic import (
    LAMBDA_TOLERANCE,
    CostPair,
    relative_improvement,
)
from repro.core.local_search import (
    DiversificationController,
    RecordedSetting,
    SearchStats,
)
from repro.core.perturbation import random_phase2_move, scramble_some_arcs
from repro.core.weights import WeightSetting
from repro.scenarios.scenario import ScenarioSet


@dataclass(frozen=True)
class RobustConstraints:
    """The Eq. (5)-(6) constraints binding Phase 2 to Phase 1's optimum.

    Attributes:
        lam_star: best failure-free delay cost ``Lambda*_normal``.
        phi_star: best failure-free throughput cost ``Phi*_normal``.
        chi: allowed relative degradation of the throughput cost.
    """

    lam_star: float
    phi_star: float
    chi: float

    def satisfied_by(self, normal_cost: CostPair) -> bool:
        """Whether a failure-free cost meets both constraints."""
        return (
            normal_cost.lam <= self.lam_star + LAMBDA_TOLERANCE
            and normal_cost.phi <= (1.0 + self.chi) * self.phi_star
        )


def bounded_failure_cost(
    evaluator: DtrEvaluator,
    setting: WeightSetting,
    failures: "ScenarioSet | list",
    bound: CostPair | None,
    stats: SearchStats | None = None,
    reuse: "ScenarioEvaluation | None" = None,
) -> CostPair | None:
    """``K_fail`` of a setting, or None once it provably exceeds ``bound``.

    Scenario costs are non-negative, so the partial sum is a lexicographic
    lower bound on the final cost; as soon as it exceeds the incumbent the
    sweep is pruned.  Passing the scenarios sorted by expected cost
    (highest first) makes the pruning bite earliest; passing ``reuse``
    (the setting's normal-scenario evaluation) enables the
    unchanged-routing shortcut.
    """
    lam = 0.0
    phi = 0.0
    for scenario in failures:
        outcome = evaluator.evaluate(setting, scenario, reuse=reuse)
        if stats is not None:
            stats.evaluations += 1
        lam += outcome.cost.lam
        phi += outcome.cost.phi
        if bound is not None and CostPair(lam, phi) > bound:
            if stats is not None:
                stats.pruned_evaluations += 1
            return None
    return CostPair(lam, phi)


def _ordered_sweep(
    evaluator: DtrEvaluator,
    setting: WeightSetting,
    failures: ScenarioSet,
    stats: SearchStats,
    reuse: "ScenarioEvaluation | None" = None,
) -> tuple[list, CostPair]:
    """Full failure sweep returning scenarios sorted worst-first.

    The ordering front-loads the expensive scenarios of the *incumbent*,
    which is the best available predictor of where a candidate's partial
    cost will exceed the bound.  The sweep goes through
    ``evaluator.evaluate_scenario_costs`` — the costs-only sweep
    contract: only per-scenario scalars come back (parallel workers fold
    locally instead of shipping arrays), and repeat sweeps of the same
    (setting, scenario set) are answered by the evaluator's sweep memo
    without re-dispatching.  Per-candidate *bounded* sweeps stay serial
    because the lexicographic pruning is inherently sequential.
    """
    if reuse is None:
        reuse = evaluator.evaluate_normal(setting)
        stats.evaluations += 1
    evaluation = evaluator.evaluate_scenario_costs(
        setting, failures, reuse=reuse
    )
    stats.evaluations += len(evaluation)
    costs = []
    lam = 0.0
    phi = 0.0
    for scenario, outcome in zip(failures, evaluation.evaluations):
        costs.append((outcome.cost.lam, outcome.cost.phi, scenario))
        lam += outcome.cost.lam
        phi += outcome.cost.phi
    costs.sort(key=lambda item: (-item[0], -item[1]))
    return [scenario for _, _, scenario in costs], CostPair(lam, phi)


@dataclass(frozen=True)
class Phase2Result:
    """Outcome of the robust search.

    Attributes:
        best_setting: the robust weight setting.
        best_kfail: its compounded failure cost over the search's
            failure set.
        normal_cost: its failure-free cost (satisfies the constraints).
        failure_evaluation: full per-scenario evaluation of the best
            setting over the search's scenario set.
        constraints: the constraints the search enforced.
        stats: search counters.
    """

    best_setting: WeightSetting
    best_kfail: CostPair
    normal_cost: CostPair
    failure_evaluation: ScenarioCosts
    constraints: RobustConstraints
    stats: SearchStats


def run_phase2(
    evaluator: DtrEvaluator,
    failures: ScenarioSet,
    starts: tuple[RecordedSetting, ...],
    constraints: RobustConstraints,
    rng: np.random.Generator,
    manager: "CheckpointManager | None" = None,
    context: "dict | None" = None,
    restore: "dict | None" = None,
) -> Phase2Result:
    """Run the robust local search.

    Args:
        evaluator: the cost oracle.
        failures: scenarios defining ``K_fail``: all single link
            failures for the paper's full search, the critical subset
            otherwise, or any composed ScenarioSet (SRLGs, regional
            failures, traffic surges, cross products).
        starts: acceptable settings from Phase 1, best first; must be
            non-empty.
        constraints: the Eq. (5)-(6) constraints.
        rng: random generator.
        manager: checkpoint at the top of every outer iteration.
        context: extra payload merged into every checkpoint (the
            optimizer stores its Phase 1 result here so a Phase 2
            checkpoint is self-contained).
        restore: a ``"phase2"``-stage checkpoint payload to re-enter
            from; the resumed search is bit-identical to one that never
            stopped.

    Returns:
        The robust setting and its evaluations.
    """
    if not starts:
        raise ValueError("phase 2 needs at least one starting setting")
    if len(failures) == 0:
        raise ValueError("phase 2 needs at least one scenario")

    config: OptimizerConfig = evaluator.config
    wp = config.weights
    sp = config.search
    num_arcs = evaluator.network.num_arcs

    if restore is None:
        stats = SearchStats()
        current = starts[0].setting.copy()
        cur_normal_eval = evaluator.evaluate_normal(current)
        cur_normal = cur_normal_eval.cost
        stats.evaluations += 1
        ordered, cur_kfail = _ordered_sweep(
            evaluator, current, failures, stats, reuse=cur_normal_eval
        )
        best_setting = current.copy()
        best_kfail = cur_kfail

        controller = DiversificationController(
            interval=sp.phase2_diversification_interval,
            min_rounds=sp.phase2_diversifications,
            cutoff=sp.improvement_cutoff,
            cap_factor=sp.round_iteration_cap_factor,
        )
        round_start_cost = best_kfail
        next_start = 1
    else:
        if restore.get("stage") != "phase2":
            raise ValueError(
                f"cannot resume phase 2 from stage {restore.get('stage')!r}"
            )
        stats = restore["stats"]
        rng.bit_generator.state = restore["rng_state"]
        (
            current,
            cur_kfail,
            best_setting,
            best_kfail,
            controller,
            round_start_cost,
            next_start,
            ordered,
        ) = restore["loop"]
        # Recomputed, not stored (bit-identical by evaluator parity);
        # the checkpointed counters already account for it.
        cur_normal_eval = evaluator.evaluate_normal(current)
        cur_normal = cur_normal_eval.cost
    sweep = max(1, round(sp.arcs_per_iteration_fraction * num_arcs))

    while stats.iterations < sp.max_iterations:
        if manager is not None:
            manager.tick(
                "phase2",
                lambda: {
                    "stage": "phase2",
                    "rng_state": rng.bit_generator.state,
                    "stats": stats,
                    "loop": (
                        current,
                        cur_kfail,
                        best_setting,
                        best_kfail,
                        controller,
                        round_start_cost,
                        next_start,
                        ordered,
                    ),
                    **(context or {}),
                },
            )
        improved = False
        for arc in rng.permutation(num_arcs)[:sweep]:
            move = random_phase2_move(current, int(arc), wp, rng)
            if not move.changes_anything:
                continue
            move.apply(current)
            cand_normal_eval = evaluator.evaluate_move(
                current, move, reuse=cur_normal_eval
            )
            cand_normal = cand_normal_eval.cost
            stats.evaluations += 1
            if not constraints.satisfied_by(cand_normal):
                move.revert(current)
                evaluator.revert_move(current, move)
                continue
            cand_kfail = bounded_failure_cost(
                evaluator,
                current,
                ordered,
                cur_kfail,
                stats,
                reuse=cand_normal_eval,
            )
            if cand_kfail is not None and cand_kfail.is_better_than(
                cur_kfail
            ):
                cur_kfail = cand_kfail
                cur_normal = cand_normal
                cur_normal_eval = cand_normal_eval
                improved = True
                stats.accepted_moves += 1
                if cand_kfail.is_better_than(best_kfail):
                    best_kfail = cand_kfail
                    best_setting = current.copy()
            else:
                move.revert(current)
                evaluator.revert_move(current, move)
        stats.iterations += 1
        if controller.note_iteration(improved):
            controller.note_diversification(
                relative_improvement(round_start_cost, best_kfail)
            )
            stats.diversifications += 1
            if controller.should_stop():
                break
            round_start_cost = best_kfail
            (
                current,
                cur_normal_eval,
                ordered,
                cur_kfail,
            ) = _diversified_start(
                evaluator, failures, starts, constraints, rng, next_start,
                stats,
            )
            cur_normal = cur_normal_eval.cost
            next_start += 1

    normal_cost = evaluator.evaluate_normal(best_setting).cost
    failure_evaluation = evaluator.evaluate_scenarios(best_setting, failures)
    return Phase2Result(
        best_setting=best_setting,
        best_kfail=failure_evaluation.total_cost,
        normal_cost=normal_cost,
        failure_evaluation=failure_evaluation,
        constraints=constraints,
        stats=stats,
    )


def _diversified_start(
    evaluator: DtrEvaluator,
    failures: ScenarioSet,
    starts: tuple[RecordedSetting, ...],
    constraints: RobustConstraints,
    rng: np.random.Generator,
    round_index: int,
    stats: SearchStats,
) -> tuple[WeightSetting, "ScenarioEvaluation", list, CostPair]:
    """Next diversification start: a pool setting, lightly scrambled.

    The scramble is kept only when it still satisfies the constraints
    (Phase 2 rounds must start from feasible points).
    """
    base = starts[round_index % len(starts)]
    candidate = scramble_some_arcs(
        base.setting, evaluator.config.weights, rng
    )
    normal_eval = evaluator.evaluate_normal(candidate)
    stats.evaluations += 1
    if not constraints.satisfied_by(normal_eval.cost):
        candidate = base.setting.copy()
        normal_eval = evaluator.evaluate_normal(candidate)
        stats.evaluations += 1
    ordered, kfail = _ordered_sweep(
        evaluator, candidate, failures, stats, reuse=normal_eval
    )
    return candidate, normal_eval, ordered, kfail
