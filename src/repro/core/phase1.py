"""Phase 1: regular optimization plus critical-link identification.

Every candidate move goes through the evaluator's one move seam,
:meth:`~repro.core.evaluation.DtrEvaluator.trial` (single-arc
delta-rerouting): an accepted move commits the trial, a rejected one
rolls the setting and the router state back.

Phase 1a (Section IV-A) locally searches for the best failure-free DTR
weight setting while opportunistically recording failure-cost samples:
whenever a perturbation starting from an acceptable setting pushes both
class weights of an arc into the failure-emulation band, the resulting
cost is one sample of that arc's failure-cost distribution.

Phase 1b (Section IV-D1) tops up samples until the criticality *rankings*
of both classes stabilize (gamma-weighted rank-change index at most
``e``).

Phase 1c (Section IV-D2) turns samples into criticalities (Eqs. 8-9),
normalizes them, and runs Algorithm 1 to pick the critical set ``Ec``.

Checkpointing: both search loops call the optional
:class:`~repro.core.checkpoint.CheckpointManager` at the top of every
outer iteration (a *boundary*: the search state is exactly the loop
locals plus the RNG state).  A restored payload re-enters the loop with
those locals and the RNG state; the incumbent's reuse evaluation is
recomputed (bit-identical by evaluator parity), so an interrupted and
resumed Phase 1 produces bit-identical results to an uninterrupted one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import OptimizerConfig
from repro.core.checkpoint import CheckpointManager
from repro.core.convergence import RankConvergenceTracker
from repro.core.criticality import CriticalityEstimate, estimate_criticality
from repro.core.evaluation import DtrEvaluator, ScenarioEvaluation
from repro.core.lexicographic import CostPair, relative_improvement
from repro.core.local_search import (
    AcceptablePool,
    DiversificationController,
    RecordedSetting,
    SearchStats,
)
from repro.core.perturbation import Move, random_pair_move
from repro.core.sampling import (
    AcceptabilityRule,
    CostSampleStore,
    acceptability_rule,
)
from repro.core.selection import CriticalSelection, select_critical_links
from repro.core.weights import WeightSetting


#: Phase-1b draw/evaluate batch size.  A constant (not ``n_jobs``) so the
#: sampling trajectory — and therefore every seeded experiment table — is
#: identical for every worker count.
_SAMPLE_BATCH = 8


class SampleCollector:
    """Records failure-like perturbation costs and tracks rank convergence.

    Args:
        config: optimizer configuration (sampling + weight parameters).
        num_arcs: arcs in the network.
    """

    def __init__(self, config: OptimizerConfig, num_arcs: int) -> None:
        self._config = config
        self._store = CostSampleStore(num_arcs)
        self._rule: AcceptabilityRule = acceptability_rule(
            config.sampling, config.sla.b1
        )
        self._tracker = RankConvergenceTracker(
            config.sampling.rank_convergence_threshold
        )
        self._update_every = config.sampling.tau * num_arcs
        self._next_update = self._update_every

    # ------------------------------------------------------------------
    @property
    def store(self) -> CostSampleStore:
        """The collected samples."""
        return self._store

    @property
    def tracker(self) -> RankConvergenceTracker:
        """The rank-convergence tracker."""
        return self._tracker

    @property
    def rule(self) -> AcceptabilityRule:
        """The relaxed acceptability rule for pre-perturbation costs."""
        return self._rule

    def observe_move(
        self,
        move: Move,
        pre_cost: CostPair,
        post_cost: CostPair,
        best_cost: CostPair,
    ) -> bool:
        """Record a sample if the move emulates a failure; True if recorded."""
        floor = self._config.weights.failure_emulation_floor
        w_max = self._config.weights.w_max
        failure_like = (
            floor <= move.new_delay <= w_max
            and floor <= move.new_tput <= w_max
        )
        if not failure_like:
            return False
        if not self._rule.is_acceptable(pre_cost, best_cost):
            return False
        self.record(move.arc, post_cost)
        return True

    def record(self, arc: int, cost: CostPair) -> None:
        """Unconditionally record a failure-cost sample for an arc."""
        self._store.add(arc, cost.lam, cost.phi)
        if self._store.total_samples >= self._next_update:
            self._next_update += self._update_every
            self._tracker.update(
                estimate_criticality(self._store, self._config.sampling)
            )

    @property
    def needs_more_samples(self) -> bool:
        """Whether Phase 1b should (continue to) run."""
        if not self._store.has_min_samples(
            self._config.sampling.min_samples_per_link
        ):
            return True
        return not self._tracker.converged


@dataclass(frozen=True)
class Phase1Result:
    """Everything Phase 1 hands to Phase 2 and to the experiments.

    Attributes:
        best_setting: the regular-optimization weight setting.
        best_cost: its failure-free cost (``Lambda*``, ``Phi*``).
        best_evaluation: full evaluation of the best setting.
        pool: acceptable settings recorded as Phase-2 starting points
            (always contains the best setting).
        store: the failure-cost samples.
        estimate: per-arc criticality estimates.
        selection: the chosen critical set ``Ec``.
        stats: search counters.
        extra_samples: samples generated by Phase 1b.
        rank_converged: whether the rank test converged (False means the
            Phase 1b sample cap was hit first).
    """

    best_setting: WeightSetting
    best_cost: CostPair
    best_evaluation: ScenarioEvaluation
    pool: tuple[RecordedSetting, ...]
    store: CostSampleStore
    estimate: CriticalityEstimate
    selection: CriticalSelection
    stats: SearchStats
    extra_samples: int
    rank_converged: bool

    @property
    def critical_arcs(self) -> tuple[int, ...]:
        """The critical arc set ``Ec``."""
        return self.selection.critical_arcs


def run_phase1a(
    evaluator: DtrEvaluator,
    rng: np.random.Generator,
    collector: SampleCollector | None,
    stats: SearchStats,
    manager: "CheckpointManager | None" = None,
    restore: "dict | None" = None,
) -> tuple[WeightSetting, CostPair, AcceptablePool]:
    """The Phase 1a local search (regular optimization).

    Returns the best setting found, its cost, and the acceptable pool.
    ``manager`` checkpoints at the top of every outer iteration;
    ``restore`` (a previously checkpointed loop payload) re-enters the
    loop exactly where the snapshot was taken.
    """
    config = evaluator.config
    wp = config.weights
    sp = config.search
    num_arcs = evaluator.network.num_arcs

    if restore is None:
        current = WeightSetting.random(num_arcs, wp, rng)
        cur_eval = evaluator.evaluate_normal(current)
        cur_cost = cur_eval.cost
        stats.evaluations += 1
        best_setting = current.copy()
        best_cost = cur_cost

        pool = AcceptablePool(
            chi=config.sampling.chi,
            capacity=config.keep_acceptable_settings,
        )
        pool.offer(current, cur_cost, best_cost)

        controller = DiversificationController(
            interval=sp.phase1_diversification_interval,
            min_rounds=sp.phase1_diversifications,
            cutoff=sp.improvement_cutoff,
            cap_factor=sp.round_iteration_cap_factor,
        )
        round_start_cost = best_cost
    else:
        (
            current,
            cur_cost,
            best_setting,
            best_cost,
            pool,
            controller,
            round_start_cost,
        ) = restore["loop"]
        # The reuse hint is recomputed, not stored: re-evaluation is
        # bit-identical (evaluator parity), and the checkpoint stays
        # lean.  The counters already include this evaluation.
        cur_eval = evaluator.evaluate_normal(current)
    sweep = max(1, round(sp.arcs_per_iteration_fraction * num_arcs))

    while stats.iterations < sp.max_iterations:
        if manager is not None:
            manager.tick(
                "phase1a",
                lambda: {
                    "stage": "phase1a",
                    "rng_state": rng.bit_generator.state,
                    "stats": stats,
                    "collector": collector,
                    "loop": (
                        current,
                        cur_cost,
                        best_setting,
                        best_cost,
                        pool,
                        controller,
                        round_start_cost,
                    ),
                },
            )
        improved = False
        for arc in rng.permutation(num_arcs)[:sweep]:
            move = random_pair_move(current, int(arc), wp, rng)
            if not move.changes_anything:
                continue
            trial = evaluator.trial(current, move, reuse=cur_eval)
            cand_eval = trial.evaluation
            cand_cost = cand_eval.cost
            stats.evaluations += 1
            if collector is not None and collector.observe_move(
                move, cur_cost, cand_cost, best_cost
            ):
                stats.samples_recorded += 1
            if cand_cost.is_better_than(cur_cost):
                trial.commit()
                cur_eval = cand_eval
                cur_cost = cand_cost
                improved = True
                stats.accepted_moves += 1
                if cand_cost.is_better_than(best_cost):
                    best_cost = cand_cost
                    best_setting = current.copy()
                    pool.rebase(best_cost)
                pool.offer(current, cand_cost, best_cost)
            else:
                trial.rollback()
        stats.iterations += 1
        if controller.note_iteration(improved):
            controller.note_diversification(
                relative_improvement(round_start_cost, best_cost)
            )
            stats.diversifications += 1
            if controller.should_stop():
                break
            round_start_cost = best_cost
            current = WeightSetting.random(num_arcs, wp, rng)
            cur_eval = evaluator.evaluate_normal(current)
            cur_cost = cur_eval.cost
            stats.evaluations += 1

    pool.rebase(best_cost)
    pool.offer(best_setting, best_cost, best_cost)
    return best_setting, best_cost, pool


def run_phase1b(
    evaluator: DtrEvaluator,
    rng: np.random.Generator,
    collector: SampleCollector,
    pool: AcceptablePool,
    best_setting: WeightSetting,
    stats: SearchStats,
    best_cost: "CostPair | None" = None,
    manager: "CheckpointManager | None" = None,
    restored_extra: "int | None" = None,
) -> int:
    """Generate extra failure-like samples until ranks converge.

    Bases are drawn from the acceptable pool (falling back to the best
    setting), the least-sampled arc gets its weights pushed into the
    failure band, and the resulting cost is recorded.  Returns the number
    of extra samples generated.

    Candidates are drawn and evaluated in fixed-size batches so a
    parallel evaluator can fan each batch across its workers.  The batch
    size is a *constant*, deliberately independent of ``n_jobs``: the
    draw sequence (which arcs get sampled, against which least-sampled
    ranking) must not depend on the worker count, or seeded experiment
    results would differ between ``--jobs`` settings.  Within one batch
    the least-sampled ranking is not refreshed between draws — the store
    updates once per recorded batch.

    ``manager`` checkpoints at the top of every batch (the boundary
    state is the collector, the pool and the sample counter);
    ``restored_extra`` re-enters mid-phase with that counter.
    ``best_cost`` only rides along into checkpoint payloads so a resume
    landing in Phase 1b can rebuild the Phase 1 result.
    """
    config = evaluator.config
    wp = config.weights
    cap = config.sampling.max_extra_samples
    bases = [r.setting for r in pool.best_first()] or [best_setting]
    extra = restored_extra or 0
    candidates_per_draw = 8
    while collector.needs_more_samples and extra < cap:
        if manager is not None:
            manager.tick(
                "phase1b",
                lambda: {
                    "stage": "phase1b",
                    "rng_state": rng.bit_generator.state,
                    "stats": stats,
                    "collector": collector,
                    "pool": pool,
                    "best_setting": best_setting,
                    "best_cost": best_cost,
                    "extra": extra,
                },
            )
        draws: list[tuple[int, WeightSetting]] = []
        for _ in range(min(_SAMPLE_BATCH, cap - extra)):
            base = bases[int(rng.integers(0, len(bases)))]
            starved = collector.store.least_sampled_arcs(
                candidates_per_draw
            )
            arc = starved[int(rng.integers(0, len(starved)))]
            candidate = base.copy()
            candidate.fail_arc_weights(arc, wp, rng)
            draws.append((arc, candidate))
        outcomes = evaluator.evaluate_normal_batch(
            [candidate for _, candidate in draws]
        )
        for (arc, _), outcome in zip(draws, outcomes):
            stats.evaluations += 1
            collector.record(arc, outcome.cost)
            stats.samples_recorded += 1
            extra += 1
    return extra


def run_phase1(
    evaluator: DtrEvaluator,
    rng: np.random.Generator,
    critical_fraction: float | None = None,
    manager: "CheckpointManager | None" = None,
    restore: "dict | None" = None,
) -> Phase1Result:
    """Run Phases 1a-1c and return the full Phase 1 result.

    ``manager`` enables periodic/signal checkpoints; ``restore`` (a
    checkpoint payload whose stage is ``"phase1a"`` or ``"phase1b"``)
    resumes mid-phase with bit-identical downstream results.
    """
    config = evaluator.config
    num_arcs = evaluator.network.num_arcs
    stage = restore.get("stage") if restore else None
    if stage is None:
        stats = SearchStats()
        collector = SampleCollector(config, num_arcs)
    else:
        if stage not in ("phase1a", "phase1b"):
            raise ValueError(f"cannot resume phase 1 from stage {stage!r}")
        stats = restore["stats"]
        collector = restore["collector"]
        rng.bit_generator.state = restore["rng_state"]

    if stage in (None, "phase1a"):
        best_setting, best_cost, pool = run_phase1a(
            evaluator,
            rng,
            collector,
            stats,
            manager=manager,
            restore=restore if stage == "phase1a" else None,
        )
        restored_extra = None
    else:
        best_setting = restore["best_setting"]
        best_cost = restore["best_cost"]
        pool = restore["pool"]
        restored_extra = restore["extra"]
    extra = run_phase1b(
        evaluator,
        rng,
        collector,
        pool,
        best_setting,
        stats,
        best_cost=best_cost,
        manager=manager,
        restored_extra=restored_extra,
    )

    estimate = estimate_criticality(collector.store, config.sampling)
    fraction = (
        config.critical_fraction
        if critical_fraction is None
        else critical_fraction
    )
    target = max(1, round(fraction * num_arcs))
    selection = select_critical_links(estimate, target)

    return Phase1Result(
        best_setting=best_setting,
        best_cost=best_cost,
        best_evaluation=evaluator.evaluate_normal(best_setting),
        pool=tuple(pool.best_first()),
        store=collector.store,
        estimate=estimate,
        selection=selection,
        stats=stats,
        extra_samples=extra,
        rank_converged=collector.tracker.converged,
    )
