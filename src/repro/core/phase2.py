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

Candidate evaluation is the hot path: each move opens a trial on the
evaluator's one move seam (:meth:`~repro.core.evaluation.DtrEvaluator.
trial`), whose normal-scenario evaluation is the constraint check, and
the per-scenario failure sweep is abandoned as soon as its partial
lexicographic cost can no longer beat the incumbent (costs only grow as
scenarios accumulate).  The search keeps the incumbent's per-scenario
records (:class:`~repro.core.evaluation.ScenarioRecord`: cost and class
routings), so a candidate re-prices only the scenarios its one-arc move
can change (:meth:`~repro.core.evaluation.MoveTrial.evaluate`); an
accepted candidate's records replace them.  A rejected move, infeasible
or not better, rolls the trial back by restoring the routers' delta
journals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import OptimizerConfig
from repro.core.checkpoint import CheckpointManager
from repro.core.evaluation import (
    DtrEvaluator,
    MoveTrial,
    ScenarioCosts,
    ScenarioEvaluation,
    ScenarioRecord,
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
from repro.core.phase1 import Phase1Result
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
    trial: "MoveTrial | None" = None,
) -> CostPair | None:
    """``K_fail`` of a setting, or None once it provably exceeds ``bound``.

    Scenario costs are non-negative, so the partial sum is a lexicographic
    lower bound on the final cost; as soon as it exceeds the incumbent the
    sweep is pruned.  Passing the scenarios sorted by expected cost
    (highest first) makes the pruning bite earliest; passing ``reuse``
    (the setting's normal-scenario evaluation) enables the
    unchanged-routing shortcut.  With an open move ``trial`` instead
    (``setting`` its moved setting), each scenario is priced by
    :meth:`~repro.core.evaluation.MoveTrial.evaluate`, which reuses the
    trial's normal evaluation: a scenario the move provably cannot
    change takes the incumbent's cost verbatim, which counts as an
    evaluation like any other (and in ``stats.verbatim_evaluations``).
    """
    lam = 0.0
    phi = 0.0
    for scenario in failures:
        if trial is None:
            outcome = evaluator.evaluate(setting, scenario, reuse=reuse)
            verbatim = False
        else:
            outcome, verbatim = trial.evaluate(scenario)
        if stats is not None:
            stats.evaluations += 1
            stats.verbatim_evaluations += verbatim
        lam += outcome.cost.lam
        phi += outcome.cost.phi
        if bound is not None and CostPair(lam, phi) > bound:
            if stats is not None:
                stats.pruned_evaluations += 1
            return None
    return CostPair(lam, phi)


def _records(
    evaluator: DtrEvaluator,
    setting: WeightSetting,
    failures: ScenarioSet,
    reuse: ScenarioEvaluation,
) -> "tuple[ScenarioCosts, dict[object, ScenarioRecord]]":
    """One full sweep of ``setting`` and its per-scenario records.

    In-process (the unbound ``DtrEvaluator.evaluate_scenarios``, as a
    sweep host's ticket runs it) on every evaluator: the records keep
    each scenario's class routings, which a fan-out sweep's hosts would
    strip.
    """
    costs = DtrEvaluator.evaluate_scenarios(
        evaluator, setting, failures, reuse=reuse
    )
    records = {
        scenario: ScenarioRecord.of(outcome, reuse)
        for scenario, outcome in zip(failures, costs.evaluations)
    }
    return costs, records


def _ordered_sweep(
    evaluator: DtrEvaluator,
    setting: WeightSetting,
    failures: ScenarioSet,
    stats: SearchStats,
    reuse: "ScenarioEvaluation | None" = None,
) -> "tuple[list, CostPair, dict[object, ScenarioRecord]]":
    """Full failure sweep: scenarios sorted worst-first, ``K_fail``, records.

    The ordering front-loads the expensive scenarios of the *incumbent*,
    which is the best available predictor of where a candidate's partial
    cost will exceed the bound.  The records (:func:`_records`) let the
    candidates' move trials re-price only what their move can change.
    Per-candidate *bounded* sweeps stay serial because the lexicographic
    pruning is inherently sequential.
    """
    if reuse is None:
        reuse = evaluator.evaluate_normal(setting)
        stats.evaluations += 1
    evaluation, records = _records(evaluator, setting, failures, reuse)
    stats.evaluations += len(evaluation)
    costs = []
    lam = 0.0
    phi = 0.0
    for scenario, outcome in zip(failures, evaluation.evaluations):
        costs.append((outcome.cost.lam, outcome.cost.phi, scenario))
        lam += outcome.cost.lam
        phi += outcome.cost.phi
    costs.sort(key=lambda item: (-item[0], -item[1]))
    ordered = [scenario for _, _, scenario in costs]
    return ordered, CostPair(lam, phi), records


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
        stats.evaluations += 1
        ordered, cur_kfail, records = _ordered_sweep(
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
        # the checkpointed counters already account for it.  So are the
        # records: derived state, counted nowhere.
        cur_normal_eval = evaluator.evaluate_normal(current)
        _, records = _records(evaluator, current, failures, cur_normal_eval)
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
            trial = evaluator.trial(
                current, move, reuse=cur_normal_eval, records=records
            )
            stats.evaluations += 1
            cand_kfail = None
            if constraints.satisfied_by(trial.evaluation.cost):
                cand_kfail = bounded_failure_cost(
                    evaluator,
                    current,
                    ordered,
                    cur_kfail,
                    stats,
                    trial=trial,
                )
            if cand_kfail is None or not cand_kfail.is_better_than(
                cur_kfail
            ):
                trial.rollback()
                continue
            trial.commit()
            cur_kfail = cand_kfail
            cur_normal_eval = trial.evaluation
            # An accepted sweep is never pruned: it priced every scenario.
            records = trial.records
            improved = True
            stats.accepted_moves += 1
            if cand_kfail.is_better_than(best_kfail):
                best_kfail = cand_kfail
                best_setting = current.copy()
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
                records,
            ) = _diversified_start(
                evaluator, failures, starts, constraints, rng, next_start,
                stats,
            )
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


def phase2_from(
    evaluator: DtrEvaluator,
    phase1: Phase1Result,
    failures: ScenarioSet,
    rng: np.random.Generator,
    manager: "CheckpointManager | None" = None,
    context: "dict | None" = None,
    restore: "dict | None" = None,
) -> Phase2Result:
    """Run Phase 2 from a Phase 1 result: its pool, bound to its optimum.

    The one place the Eq. (5)-(6) constraints are built from
    ``phase1.best_cost`` and ``config.sampling.chi``; the optimizer and
    every baseline differ only in the ``failures`` they pass.  The
    remaining arguments go to :func:`run_phase2` unchanged.
    """
    constraints = RobustConstraints(
        lam_star=phase1.best_cost.lam,
        phi_star=phase1.best_cost.phi,
        chi=evaluator.config.sampling.chi,
    )
    return run_phase2(
        evaluator,
        failures,
        phase1.pool,
        constraints,
        rng,
        manager=manager,
        context=context,
        restore=restore,
    )


def _diversified_start(
    evaluator: DtrEvaluator,
    failures: ScenarioSet,
    starts: tuple[RecordedSetting, ...],
    constraints: RobustConstraints,
    rng: np.random.Generator,
    round_index: int,
    stats: SearchStats,
) -> tuple[WeightSetting, "ScenarioEvaluation", list, CostPair, dict]:
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
    ordered, kfail, records = _ordered_sweep(
        evaluator, candidate, failures, stats, reuse=normal_eval
    )
    return candidate, normal_eval, ordered, kfail, records
