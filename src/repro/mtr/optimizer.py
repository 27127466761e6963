"""Two-phase robust optimization for k-class MTR.

The DTR pipeline of :mod:`repro.core` generalized: Phase 1 locally
optimizes the k-component normal cost while harvesting failure-like
samples; Phase 1c selects critical links with the k-list Algorithm 1;
Phase 2 minimizes the compounded failure cost over the critical
scenarios subject to the generalized Eqs. (5)-(6): the top-priority
class's normal cost must stay at its optimum and every lower-priority
class may degrade by at most ``chi``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import OptimizerConfig
from repro.core.local_search import DiversificationController, SearchStats
from repro.mtr.cost_vector import CostVector, components_equal
from repro.mtr.criticality import (
    MtrCriticality,
    MtrSampleStore,
    MtrSelection,
    estimate_mtr_criticality,
    select_mtr_critical_links,
)
from repro.mtr.evaluation import MtrEvaluator
from repro.mtr.weights import MtrWeightSetting
from repro.routing.failures import FailureModel
from repro.scenarios.generators import legacy_failures
from repro.scenarios.scenario import ScenarioSet


@dataclass(frozen=True)
class MtrConstraints:
    """Generalized Eqs. (5)-(6) for k classes.

    Attributes:
        star: the Phase-1 optimal normal cost vector.
        chi: allowed relative degradation for every non-top class.
    """

    star: CostVector
    chi: float

    def satisfied_by(self, normal: CostVector) -> bool:
        """Top class pinned to its optimum; the rest within ``1 + chi``."""
        top_star = self.star.values[0]
        if normal.values[0] > top_star and not components_equal(
            normal.values[0], top_star
        ):
            return False
        return all(
            value <= (1.0 + self.chi) * star + 1e-12
            or components_equal(value, (1.0 + self.chi) * star)
            for value, star in zip(normal.values[1:], self.star.values[1:])
        )


@dataclass(frozen=True)
class MtrResult:
    """Outcome of the MTR optimization.

    Attributes:
        regular_setting: the performance-only setting (Phase 1).
        regular_cost: its normal cost vector.
        robust_setting: the robust setting (Phase 2).
        robust_normal_cost: the robust setting's normal cost vector.
        robust_kfail: compounded failure cost over critical scenarios.
        criticality: per-class criticality estimates.
        selection: the chosen critical arcs.
        critical_failures: scenarios Phase 2 optimized over.
        stats: combined search counters.
    """

    regular_setting: MtrWeightSetting
    regular_cost: CostVector
    robust_setting: MtrWeightSetting
    robust_normal_cost: CostVector
    robust_kfail: CostVector
    criticality: MtrCriticality
    selection: MtrSelection
    critical_failures: ScenarioSet
    stats: SearchStats


class MtrOptimizer:
    """Robust k-topology optimization for one MTR instance.

    Args:
        evaluator: the MTR cost oracle.
        config: search/sampling parameters (DTR defaults apply).
        failure_model: single-failure granularity.
        rng: random generator.
    """

    def __init__(
        self,
        evaluator: MtrEvaluator,
        config: OptimizerConfig,
        failure_model: FailureModel = FailureModel.LINK,
        rng: np.random.Generator | None = None,
    ) -> None:
        self._evaluator = evaluator
        self._config = config
        self._failure_model = failure_model
        self._rng = rng if rng is not None else np.random.default_rng()

    # ------------------------------------------------------------------
    def run(self) -> MtrResult:
        """Run both phases and return the combined result."""
        stats = SearchStats()
        best_setting, best_cost, pool, store = self._phase1(stats)
        criticality = estimate_mtr_criticality(
            store, self._config.sampling
        )
        target = max(
            1,
            round(
                self._config.critical_fraction
                * self._evaluator.network.num_arcs
            ),
        )
        selection = select_mtr_critical_links(criticality, target)
        failures = legacy_failures(
            self._evaluator.network, self._failure_model
        ).restricted_to_arcs(selection.critical_arcs)
        constraints = MtrConstraints(
            star=best_cost, chi=self._config.sampling.chi
        )
        robust_setting, robust_kfail = self._phase2(
            pool or [(best_setting, best_cost)],
            failures,
            constraints,
            stats,
        )
        return MtrResult(
            regular_setting=best_setting,
            regular_cost=best_cost,
            robust_setting=robust_setting,
            robust_normal_cost=self._evaluator.evaluate_normal(
                robust_setting
            ).cost,
            robust_kfail=robust_kfail,
            criticality=criticality,
            selection=selection,
            critical_failures=failures,
            stats=stats,
        )

    # ------------------------------------------------------------------
    def _phase1(
        self, stats: SearchStats
    ) -> tuple[
        MtrWeightSetting,
        CostVector,
        list[tuple[MtrWeightSetting, CostVector]],
        MtrSampleStore,
    ]:
        """Normal-cost local search with failure-like sample collection."""
        config = self._config
        evaluator = self._evaluator
        rng = self._rng
        wp = config.weights
        sp = config.search
        k = evaluator.num_classes
        num_arcs = evaluator.network.num_arcs

        current = MtrWeightSetting.random(k, num_arcs, wp, rng)
        cur_cost = evaluator.evaluate_normal(current).cost
        stats.evaluations += 1
        best_setting = current.copy()
        best_cost = cur_cost
        store = MtrSampleStore(k, num_arcs)
        pool: list[tuple[MtrWeightSetting, CostVector]] = []
        pool_keys: set[bytes] = set()

        controller = DiversificationController(
            interval=sp.phase1_diversification_interval,
            min_rounds=sp.phase1_diversifications,
            cutoff=sp.improvement_cutoff,
            cap_factor=sp.round_iteration_cap_factor,
        )
        round_start = best_cost
        sweep = max(1, round(sp.arcs_per_iteration_fraction * num_arcs))
        constraints_like = MtrConstraints(
            star=best_cost, chi=config.sampling.chi
        )

        while stats.iterations < sp.max_iterations:
            improved = False
            for arc in rng.permutation(num_arcs)[:sweep]:
                arc = int(arc)
                old = current.arc_column(arc)
                new = rng.integers(wp.w_min, wp.w_max + 1, size=k)
                if np.array_equal(old, new):
                    continue
                current.set_arc(arc, new)
                cand = evaluator.evaluate_normal(current).cost
                stats.evaluations += 1
                floor = wp.failure_emulation_floor
                if np.all(new >= floor) and self._sample_acceptable(
                    cur_cost, best_cost
                ):
                    store.add(arc, cand)
                    stats.samples_recorded += 1
                if cand.is_better_than(cur_cost):
                    cur_cost = cand
                    improved = True
                    stats.accepted_moves += 1
                    if cand.is_better_than(best_cost):
                        best_cost = cand
                        best_setting = current.copy()
                        constraints_like = MtrConstraints(
                            star=best_cost, chi=config.sampling.chi
                        )
                        pool = [
                            (s, c)
                            for s, c in pool
                            if constraints_like.satisfied_by(c)
                        ]
                        pool_keys = {s.key() for s, _ in pool}
                    if (
                        constraints_like.satisfied_by(cand)
                        and current.key() not in pool_keys
                    ):
                        pool.append((current.copy(), cand))
                        pool_keys.add(current.key())
                        if len(pool) > config.keep_acceptable_settings:
                            pool.sort(key=lambda e: e[1].values)
                            evicted = pool.pop()
                            pool_keys.discard(evicted[0].key())
                else:
                    current.set_arc(arc, old)
            stats.iterations += 1
            if controller.note_iteration(improved):
                controller.note_diversification(
                    best_cost.relative_improvement_over(round_start)
                )
                stats.diversifications += 1
                if controller.should_stop():
                    break
                round_start = best_cost
                current = MtrWeightSetting.random(k, num_arcs, wp, rng)
                cur_cost = evaluator.evaluate_normal(current).cost
                stats.evaluations += 1

        # top up the sample store so every arc has evidence
        extra_cap = config.sampling.max_extra_samples
        extra = 0
        minimum = config.sampling.min_samples_per_link
        while store.counts().min() < minimum and extra < extra_cap:
            starved = store.least_sampled_arcs(4)
            arc = int(starved[int(rng.integers(0, len(starved)))])
            probe = best_setting.copy()
            probe.fail_arc(arc, wp, rng)
            cost = evaluator.evaluate_normal(probe).cost
            stats.evaluations += 1
            store.add(arc, cost)
            stats.samples_recorded += 1
            extra += 1

        if not any(
            np.array_equal(s.weights, best_setting.weights) for s, _ in pool
        ):
            pool.insert(0, (best_setting.copy(), best_cost))
        return best_setting, best_cost, pool, store

    def _sample_acceptable(
        self, pre_cost: CostVector, best: CostVector
    ) -> bool:
        """Relaxed acceptability of the pre-perturbation cost.

        Generalizes the DTR rule: top class within ``z * B1`` of the
        best, every other class within ``1 + chi``.
        """
        sampling = self._config.sampling
        slack = sampling.z * self._config.sla.b1
        if pre_cost.values[0] > best.values[0] + slack:
            return False
        return all(
            value <= (1.0 + sampling.chi) * star + 1e-12
            for value, star in zip(pre_cost.values[1:], best.values[1:])
        )

    # ------------------------------------------------------------------
    def _phase2(
        self,
        starts: list[tuple[MtrWeightSetting, CostVector]],
        failures: ScenarioSet,
        constraints: MtrConstraints,
        stats: SearchStats,
    ) -> tuple[MtrWeightSetting, CostVector]:
        """Robust local search over the critical failure scenarios."""
        evaluator = self._evaluator
        config = self._config
        rng = self._rng
        wp = config.weights
        sp = config.search
        k = evaluator.num_classes
        num_arcs = evaluator.network.num_arcs

        if len(failures) == 0:
            # no critical scenario: the regular optimum is already robust
            return starts[0][0].copy(), CostVector.zero(k)

        def kfail(setting: MtrWeightSetting) -> CostVector:
            total = evaluator.evaluate_failures(setting, failures)
            stats.evaluations += len(failures)
            return total.total_cost

        current = starts[0][0].copy()
        cur_kfail = kfail(current)
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
                arc = int(arc)
                old = current.arc_column(arc)
                new = old.copy()
                # mostly single-class moves, as in the DTR Phase 2
                if rng.random() < 0.25:
                    new = rng.integers(wp.w_min, wp.w_max + 1, size=k)
                else:
                    class_index = int(rng.integers(0, k))
                    new[class_index] = int(
                        rng.integers(wp.w_min, wp.w_max + 1)
                    )
                if np.array_equal(old, new):
                    continue
                current.set_arc(arc, new)
                normal = evaluator.evaluate_normal(current).cost
                stats.evaluations += 1
                if not constraints.satisfied_by(normal):
                    current.set_arc(arc, old)
                    continue
                cand_kfail = kfail(current)
                if cand_kfail.is_better_than(cur_kfail):
                    cur_kfail = cand_kfail
                    improved = True
                    stats.accepted_moves += 1
                    if cand_kfail.is_better_than(best_kfail):
                        best_kfail = cand_kfail
                        best_setting = current.copy()
                else:
                    current.set_arc(arc, old)
            stats.iterations += 1
            if controller.note_iteration(improved):
                controller.note_diversification(
                    best_kfail.relative_improvement_over(round_start)
                )
                stats.diversifications += 1
                if controller.should_stop():
                    break
                round_start = best_kfail
                base = starts[next_start % len(starts)][0]
                current = base.copy()
                cur_kfail = kfail(current)
                next_start += 1

        return best_setting, best_kfail
