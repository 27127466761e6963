"""``routing_backend`` is execution-only: evaluator and search parity.

The backend knob may change how fast the cost oracle runs, never what it
computes.  These tests pin evaluator-level cost equality across the
three backends and the invariance of seeded Phase 1 / Phase 2 searches
to the knob (the bench gate in ``benchmarks/bench_scale.py`` enforces
the same properties at Rocketfuel scale).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config import ExecutionParams, OptimizerConfig
from repro.core.evaluation import DtrEvaluator
from repro.core.phase1 import run_phase1
from repro.core.phase2 import RobustConstraints, run_phase2
from repro.routing.failures import single_link_failures


def backend_config(config: OptimizerConfig, backend: str) -> OptimizerConfig:
    return config.replace(
        execution=dataclasses.replace(
            config.execution, routing_backend=backend
        )
    )


class TestExecutionParams:
    def test_rejects_unknown_backend(self):
        # "cuda" was never valid; the other two values were, until
        # their execution paths were deleted.  Each fails closed and
        # names the choices that remain.
        for field, value, choices in (
            ("routing_backend", "cuda", "auto, python, vector"),
            ("routing_backend", "numba", "auto, python, vector"),
            ("sweep_batching", "on", "auto, off"),
        ):
            with pytest.raises(ValueError, match=choices):
                ExecutionParams(**{field: value})
        # Deleted knobs fail closed too: ``hosts`` alone selects the
        # host pool, and the routing cache has a fixed capacity.
        for field, value in (("executor", "thread"), ("cache_size", 8)):
            with pytest.raises(TypeError, match=field):
                ExecutionParams(**{field: value})

    @pytest.mark.parametrize("backend", ["auto", "python", "vector"])
    def test_accepts_valid_backends(self, backend):
        assert ExecutionParams(routing_backend=backend).routing_backend == (
            backend
        )

    def test_default_is_auto(self):
        assert ExecutionParams().routing_backend == "auto"


class TestEvaluatorWiring:
    def test_engine_and_router_get_the_backend(
        self, small_instance, tiny_config
    ):
        network, traffic = small_instance
        config = backend_config(tiny_config, "vector")
        evaluator = DtrEvaluator(network, traffic, config)
        assert evaluator.engine.backend == "vector"
        setting_rng = np.random.default_rng(0)
        from repro.core.weights import WeightSetting

        setting = WeightSetting.random(
            network.num_arcs, config.weights, setting_rng
        )
        evaluator.evaluate_normal(setting)
        for router in evaluator._routers.values():
            assert router._backend == "vector"


class TestEvaluatorParity:
    @pytest.mark.parametrize("incremental", [True, False])
    def test_sweep_costs_identical(
        self, small_instance, tiny_config, incremental
    ):
        network, traffic = small_instance
        from repro.core.weights import WeightSetting

        rng = np.random.default_rng(13)
        setting = WeightSetting.random(
            network.num_arcs, tiny_config.weights, rng
        )
        failures = single_link_failures(network)
        outcomes = {}
        for backend in ("python", "vector", "auto"):
            config = backend_config(tiny_config, backend).replace(
                execution=ExecutionParams(
                    incremental_routing=incremental,
                    routing_backend=backend,
                )
            )
            evaluator = DtrEvaluator(network, traffic, config)
            normal = evaluator.evaluate_normal(setting)
            sweep = evaluator.evaluate_failures(
                setting, failures, reuse=normal
            )
            outcomes[backend] = (normal, sweep)
        ref_normal, ref_sweep = outcomes["python"]
        for backend in ("vector", "auto"):
            normal, sweep = outcomes[backend]
            assert normal.cost == ref_normal.cost, backend
            np.testing.assert_array_equal(
                normal.pair_delays, ref_normal.pair_delays
            )
            assert len(sweep) == len(ref_sweep)
            for got, expected in zip(
                sweep.evaluations, ref_sweep.evaluations
            ):
                assert got.cost == expected.cost, backend
                np.testing.assert_array_equal(
                    got.loads_delay, expected.loads_delay
                )
                np.testing.assert_array_equal(
                    got.loads_tput, expected.loads_tput
                )


@pytest.mark.slow
class TestSearchInvariance:
    """Seeded Phase 1 / Phase 2 results do not depend on the backend."""

    def _phase1(self, small_instance, tiny_config, backend):
        network, traffic = small_instance
        config = backend_config(tiny_config, backend)
        evaluator = DtrEvaluator(network, traffic, config)
        result = run_phase1(evaluator, np.random.default_rng(21))
        return result, evaluator

    def test_phase1_and_phase2_invariant(self, small_instance, tiny_config):
        results = {}
        for backend in ("python", "vector"):
            p1, evaluator = self._phase1(
                small_instance, tiny_config, backend
            )
            constraints = RobustConstraints(
                p1.best_cost.lam,
                p1.best_cost.phi,
                tiny_config.sampling.chi,
            )
            failures = single_link_failures(evaluator.network)
            p2 = run_phase2(
                evaluator,
                failures,
                p1.pool,
                constraints,
                np.random.default_rng(22),
            )
            results[backend] = (p1, p2)
        p1_py, p2_py = results["python"]
        p1_vec, p2_vec = results["vector"]
        assert p1_py.best_cost == p1_vec.best_cost
        assert p1_py.best_setting == p1_vec.best_setting
        assert (
            p1_py.selection.critical_arcs == p1_vec.selection.critical_arcs
        )
        assert p2_py.best_kfail == p2_vec.best_kfail
        assert p2_py.best_setting == p2_vec.best_setting
        assert p2_py.stats.evaluations == p2_vec.stats.evaluations
