"""Tests for the k-class MTR generalization."""

import numpy as np
import pytest

from repro.config import (
    OptimizerConfig,
    SamplingParams,
    SearchParams,
    SlaParams,
    WeightParams,
)
from repro.core import DtrEvaluator, WeightSetting
from repro.mtr import (
    CostModel,
    CostVector,
    MtrClass,
    MtrEvaluator,
    MtrInstance,
    MtrOptimizer,
    MtrSampleStore,
    MtrWeightSetting,
    dtr_instance,
    estimate_mtr_criticality,
    select_mtr_critical_links,
)
from repro.scenarios import gaussian_surges, legacy_failures
from repro.traffic import gravity_matrix


@pytest.fixture
def mtr_setup(small_instance, tiny_config):
    network, traffic = small_instance
    instance = dtr_instance(
        traffic.delay, traffic.throughput, tiny_config.sla
    )
    return network, traffic, instance, tiny_config


class TestCostVector:
    def test_lexicographic_order(self):
        assert CostVector((1.0, 9.0, 9.0)) < CostVector((2.0, 0.0, 0.0))
        assert CostVector((1.0, 2.0, 3.0)) < CostVector((1.0, 2.0, 4.0))

    def test_equality_tolerance(self):
        a = CostVector((1.0, 2.0))
        b = CostVector((1.0 + 1e-9, 2.0))
        assert a.equals(b)
        assert not a < b and not b < a

    def test_addition_and_total(self):
        total = CostVector.total(
            [CostVector((1.0, 2.0)), CostVector((3.0, 4.0))]
        )
        assert total == CostVector((4.0, 6.0))

    def test_total_empty_rejected(self):
        with pytest.raises(ValueError):
            CostVector.total([])

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            CostVector((1.0,)) < CostVector((1.0, 2.0))

    def test_relative_improvement(self):
        before = CostVector((100.0, 10.0))
        after = CostVector((90.0, 20.0))
        assert after.relative_improvement_over(before) == pytest.approx(0.1)
        assert before.relative_improvement_over(after) == 0.0


class TestMtrClasses:
    def test_priority_ordering(self, mtr_setup):
        _, _, instance, _ = mtr_setup
        assert [c.name for c in instance.classes] == ["delay", "throughput"]

    def test_sla_class_requires_params(self, small_instance):
        _, traffic = small_instance
        with pytest.raises(ValueError, match="SlaParams"):
            MtrClass("x", traffic.delay, CostModel.SLA, 0)

    def test_duplicate_names_rejected(self, small_instance, tiny_config):
        _, traffic = small_instance
        cls = MtrClass(
            "x", traffic.delay, CostModel.SLA, 0, tiny_config.sla
        )
        other = MtrClass("x", traffic.throughput, CostModel.LOAD, 1)
        with pytest.raises(ValueError, match="unique"):
            MtrInstance(classes=(cls, other))

    def test_class_lookup(self, mtr_setup):
        _, _, instance, _ = mtr_setup
        assert instance.class_named("delay").priority == 0
        with pytest.raises(KeyError):
            instance.class_named("video")


class TestMtrWeights:
    def test_random_and_copy(self, rng):
        params = WeightParams(w_max=15)
        ws = MtrWeightSetting.random(3, 20, params, rng)
        assert ws.num_classes == 3 and ws.num_arcs == 20
        cp = ws.copy()
        cp.set_arc(0, np.asarray([1, 1, 1]))
        assert not np.array_equal(cp.weights, ws.weights) or np.all(
            ws.arc_column(0) == 1
        )

    def test_failure_emulation_requires_all_classes(self, rng):
        params = WeightParams(w_max=20)
        ws = MtrWeightSetting.uniform(2, 5)
        ws.set_arc(1, np.asarray([20, 5]))
        assert not ws.emulates_failure(1, params)
        ws.set_arc(1, np.asarray([20, 15]))
        assert ws.emulates_failure(1, params)

    def test_fail_arc(self, rng):
        params = WeightParams(w_max=20)
        ws = MtrWeightSetting.uniform(3, 5)
        ws.fail_arc(2, params, rng)
        assert ws.emulates_failure(2, params)


class TestMtrEvaluatorMatchesDtr:
    def test_two_class_equivalence(self, mtr_setup, rng):
        network, traffic, instance, config = mtr_setup
        mtr_eval = MtrEvaluator(network, instance, config.delay)
        dtr_eval = DtrEvaluator(network, traffic, config)
        for seed in range(3):
            ws = WeightSetting.random(
                network.num_arcs,
                config.weights,
                np.random.default_rng(seed),
            )
            mws = MtrWeightSetting(np.stack([ws.delay, ws.tput]))
            mtr_cost = mtr_eval.evaluate_normal(mws).cost
            dtr_cost = dtr_eval.evaluate_normal(ws).cost
            assert mtr_cost.values[0] == pytest.approx(
                dtr_cost.lam, abs=1e-9
            )
            assert mtr_cost.values[1] == pytest.approx(
                dtr_cost.phi, rel=1e-12
            )

    def test_equivalence_under_failures(self, mtr_setup):
        network, traffic, instance, config = mtr_setup
        mtr_eval = MtrEvaluator(network, instance, config.delay)
        dtr_eval = DtrEvaluator(network, traffic, config)
        ws = WeightSetting.random(
            network.num_arcs, config.weights, np.random.default_rng(7)
        )
        mws = MtrWeightSetting(np.stack([ws.delay, ws.tput]))
        failures = legacy_failures(network)
        for scenario in failures:
            mtr_cost = mtr_eval.evaluate(mws, scenario.failure).cost
            dtr_cost = dtr_eval.evaluate(ws, scenario).cost
            assert mtr_cost.values[0] == pytest.approx(
                dtr_cost.lam, abs=1e-9
            )
            assert mtr_cost.values[1] == pytest.approx(
                dtr_cost.phi, rel=1e-12
            )
        swept = mtr_eval.evaluate_failures(mws, failures)
        assert [e.scenario for e in swept.evaluations] == [
            s.failure for s in failures
        ]

    def test_failure_sweep_refuses_traffic_variants(self, mtr_setup):
        network, _, instance, config = mtr_setup
        mtr_eval = MtrEvaluator(network, instance, config.delay)
        mws = MtrWeightSetting.uniform(2, network.num_arcs)
        with pytest.raises(ValueError, match="traffic variants"):
            mtr_eval.evaluate_failures(mws, gaussian_surges(count=1))


class TestMtrCriticality:
    def test_store_and_estimate(self):
        store = MtrSampleStore(2, 3)
        store.add(0, CostVector((10.0, 1.0)))
        store.add(0, CostVector((50.0, 5.0)))
        store.add(1, CostVector((20.0, 2.0)))
        assert store.total_samples == 3
        assert store.counts().tolist() == [2, 1, 0]
        from repro.config import SamplingParams as SP

        criticality = estimate_mtr_criticality(store, SP())
        assert criticality.rho.shape == (2, 3)
        assert criticality.rho[0, 0] > 0  # wide samples on arc 0

    def test_arity_check(self):
        store = MtrSampleStore(2, 3)
        with pytest.raises(ValueError):
            store.add(0, CostVector((1.0,)))

    def test_selection_covers_dominant_arcs(self):
        from repro.config import SamplingParams as SP
        from repro.mtr.criticality import MtrCriticality

        rho = np.zeros((3, 10))
        rho[0, 4] = 5.0
        rho[1, 7] = 5.0
        rho[2, 1] = 5.0
        criticality = MtrCriticality(rho=rho, tails=np.ones((3, 10)))
        selection = select_mtr_critical_links(criticality, 3)
        assert {1, 4, 7}.issubset(set(selection.critical_arcs))


class TestMtrOptimizer:
    def test_three_class_end_to_end(self, small_instance):
        network, traffic = small_instance
        gen = np.random.default_rng(9)
        video = gravity_matrix(
            network.num_nodes, gen, traffic.delay.total / 2, name="video"
        )
        instance = MtrInstance(
            classes=(
                MtrClass(
                    "voice",
                    traffic.delay,
                    CostModel.SLA,
                    0,
                    SlaParams(theta=0.025),
                ),
                MtrClass(
                    "video",
                    video,
                    CostModel.SLA,
                    1,
                    SlaParams(theta=0.060),
                ),
                MtrClass("bulk", traffic.throughput, CostModel.LOAD, 2),
            )
        )
        config = OptimizerConfig(
            weights=WeightParams(w_max=12),
            search=SearchParams(
                phase1_diversification_interval=3,
                phase1_diversifications=1,
                phase2_diversification_interval=2,
                phase2_diversifications=1,
                arcs_per_iteration_fraction=0.4,
                round_iteration_cap_factor=2,
                max_iterations=15,
            ),
            sampling=SamplingParams(
                tau=1, min_samples_per_link=2, max_extra_samples=150
            ),
        )
        evaluator = MtrEvaluator(network, instance, config.delay)
        optimizer = MtrOptimizer(
            evaluator, config, rng=np.random.default_rng(11)
        )
        result = optimizer.run()
        assert result.regular_setting.num_classes == 3
        assert len(result.robust_kfail) == 3
        # robust normal cost satisfies the generalized constraints
        from repro.mtr import MtrConstraints

        constraints = MtrConstraints(
            star=result.regular_cost, chi=config.sampling.chi
        )
        assert constraints.satisfied_by(result.robust_normal_cost)
        assert len(result.selection) >= 1
