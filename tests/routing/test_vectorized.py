"""Cross-backend parity: the vector batch kernels vs the python kernels.

The vector backend must be a pure execution knob: on integer-weight
instances every routing artifact (distances, masks, loads, undelivered,
path delays) is bit-identical to the python backend's, across normal
conditions, arc failures and node removals.  These tests pin that
property-style on seeded PLTopo and ISP instances, at kernel level and
at engine level, including a >=100-node instance (marked slow).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.routing.backend import (
    VALID_BACKENDS,
    VECTOR_CROSSOVER_WORK,
    VECTOR_PROPAGATION_CROSSOVER_WORK,
    resolve_backend,
    validate_backend,
)
from repro.routing.engine import RoutingEngine
from repro.routing.failures import NORMAL, FailureScenario
from repro.routing.fastpath import (
    PropagationPlan,
    fast_propagate_loads,
    fast_propagate_mean_delay,
    fast_propagate_worst_delay,
)
from repro.routing.incremental import IncrementalRouter
from repro.routing.vectorized import (
    BatchPlan,
    batch_propagate_loads,
    batch_propagate_mean_delay,
    batch_propagate_worst_delay,
    batch_total_loads,
    build_schedule,
)
from repro.topology import isp_topology, powerlaw_topology, rand_topology
from repro.traffic import dtr_traffic


def make_instance(build, seed: int):
    rng = np.random.default_rng(seed)
    network = build(rng)
    demands = dtr_traffic(network.num_nodes, rng, 1.0).delay.values
    return network, demands, rng


def random_scenario(network, rng, kind: int) -> FailureScenario:
    if kind == 0:
        return NORMAL
    if kind == 1:
        arcs = rng.integers(0, network.num_arcs, size=2)
        return FailureScenario(failed_arcs=tuple(int(a) for a in arcs))
    node = int(rng.integers(0, network.num_nodes))
    return FailureScenario(
        failed_arcs=tuple(int(a) for a in network.arcs_of_node(node)),
        removed_nodes=(node,),
    )


INSTANCES = [
    pytest.param(lambda rng: powerlaw_topology(24, 3, rng), id="pl24"),
    pytest.param(lambda rng: rand_topology(20, 4.5, rng), id="rand20"),
    pytest.param(lambda rng: isp_topology(), id="isp"),
]


class TestBackendSelection:
    def test_validate_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown routing backend"):
            validate_backend("numpy")

    def test_fixed_backends_pass_through(self):
        for backend in ("python", "vector"):
            assert resolve_backend(backend, 10, 40, 10) == backend
        assert set(VALID_BACKENDS) == {"auto", "python", "vector"}

    def test_auto_uses_work_measure(self):
        # work = destinations * (nodes + arcs)
        assert resolve_backend("auto", 400, 2400, 400) == "vector"
        assert resolve_backend("auto", 16, 70, 16) == "python"
        just_below = VECTOR_CROSSOVER_WORK // 100 - 1
        assert resolve_backend("auto", 60, 40, just_below) == "python"
        assert resolve_backend("auto", 60, 40, just_below + 2) == "vector"

    def test_propagate_crossover_is_lower(self):
        assert VECTOR_PROPAGATION_CROSSOVER_WORK < VECTOR_CROSSOVER_WORK
        d = VECTOR_PROPAGATION_CROSSOVER_WORK // 100
        assert (
            resolve_backend("auto", 60, 40, d + 1, kind="propagate")
            == "vector"
        )
        assert resolve_backend("auto", 60, 40, d + 1, kind="route") == "python"

    def test_engine_rejects_unknown_backend(self, square_network):
        with pytest.raises(ValueError, match="unknown routing backend"):
            RoutingEngine(square_network, backend="fast")


class TestKernelParity:
    """Batch kernels vs per-destination python kernels, bit for bit."""

    @pytest.mark.parametrize("build", INSTANCES)
    def test_loads_and_delays(self, build):
        network, demands, rng = make_instance(build, seed=101)
        engine = RoutingEngine(network, backend="python")
        plan = PropagationPlan.for_network(network)
        batch_plan = BatchPlan.for_network(network)
        for trial in range(4):
            weights = rng.integers(1, 20, network.num_arcs).astype(
                np.float64
            )
            routing = engine.route_class(weights, demands)
            dests = routing.destinations
            cols = routing.dist[:, dests]
            contribs, und = batch_propagate_loads(
                batch_plan,
                routing.masks,
                cols,
                demands[:, dests],
                dests,
            )
            loads_ref = [0.0] * network.num_arcs
            for row, t in enumerate(dests):
                contrib_ref = [0.0] * network.num_arcs
                und_ref = fast_propagate_loads(
                    plan,
                    routing.masks[row],
                    cols[:, row],
                    demands[:, int(t)],
                    int(t),
                    contrib_ref,
                )
                np.testing.assert_array_equal(
                    contribs[row], np.asarray(contrib_ref)
                )
                assert float(und[row]) == und_ref
                for a, share in enumerate(contrib_ref):
                    loads_ref[a] += share

            total, und2 = batch_total_loads(
                batch_plan,
                routing.masks,
                cols,
                demands[:, dests],
                dests,
            )
            np.testing.assert_array_equal(total, np.asarray(loads_ref))
            np.testing.assert_array_equal(und2, und)

            arc_delays = rng.uniform(1e-3, 1e-2, network.num_arcs)
            delays_list = arc_delays.tolist()
            worst = batch_propagate_worst_delay(
                batch_plan, routing.masks, cols, arc_delays, dests
            )
            mean = batch_propagate_mean_delay(
                batch_plan, routing.masks, cols, arc_delays, dests
            )
            for row, t in enumerate(dests):
                np.testing.assert_array_equal(
                    worst[:, row],
                    np.asarray(
                        fast_propagate_worst_delay(
                            plan,
                            routing.masks[row],
                            cols[:, row],
                            delays_list,
                            int(t),
                        )
                    ),
                )
                np.testing.assert_array_equal(
                    mean[:, row],
                    np.asarray(
                        fast_propagate_mean_delay(
                            plan,
                            routing.masks[row],
                            cols[:, row],
                            delays_list,
                            int(t),
                        )
                    ),
                )

    def test_prebuilt_schedule_matches(self):
        network, demands, rng = make_instance(
            lambda g: powerlaw_topology(24, 3, g), seed=7
        )
        engine = RoutingEngine(network, backend="python")
        weights = rng.integers(1, 20, network.num_arcs).astype(np.float64)
        routing = engine.route_class(weights, demands)
        dests = routing.destinations
        cols = routing.dist[:, dests]
        batch_plan = BatchPlan.for_network(network)
        schedule = build_schedule(batch_plan, routing.masks, cols)
        without = batch_propagate_loads(
            batch_plan, routing.masks, cols, demands[:, dests], dests
        )
        with_sched = batch_propagate_loads(
            batch_plan,
            routing.masks,
            cols,
            demands[:, dests],
            dests,
            schedule=schedule,
        )
        np.testing.assert_array_equal(without[0], with_sched[0])
        np.testing.assert_array_equal(without[1], with_sched[1])


class TestEngineParity:
    """route_class + path_delays across backends, every scenario kind."""

    @pytest.mark.parametrize("build", INSTANCES)
    def test_integer_weights_bit_identical(self, build):
        network, demands, rng = make_instance(build, seed=3)
        e_py = RoutingEngine(network, backend="python")
        e_vec = RoutingEngine(network, backend="vector")
        for trial in range(9):
            weights = rng.integers(1, 20, network.num_arcs).astype(
                np.float64
            )
            scenario = random_scenario(network, rng, trial % 3)
            r_py = e_py.route_class(weights, demands, scenario)
            r_vec = e_vec.route_class(weights, demands, scenario)
            np.testing.assert_array_equal(r_py.dist, r_vec.dist)
            np.testing.assert_array_equal(r_py.masks, r_vec.masks)
            np.testing.assert_array_equal(r_py.loads, r_vec.loads)
            assert r_py.undelivered == r_vec.undelivered
            arc_delays = rng.uniform(1e-3, 1e-2, network.num_arcs)
            for mode in ("worst", "mean"):
                np.testing.assert_array_equal(
                    e_py.path_delays(r_py, arc_delays, mode=mode),
                    e_vec.path_delays(r_vec, arc_delays, mode=mode),
                )

    def test_float_weights_within_tolerance(self):
        """Float weights: stacks agree to SPF tolerance, exactly on flow."""
        network, demands, rng = make_instance(
            lambda g: powerlaw_topology(24, 3, g), seed=11
        )
        e_py = RoutingEngine(network, backend="python")
        e_vec = RoutingEngine(network, backend="vector")
        for _ in range(4):
            weights = rng.uniform(1.0, 20.0, network.num_arcs)
            r_py = e_py.route_class(weights, demands)
            r_vec = e_vec.route_class(weights, demands)
            dests = r_py.destinations
            np.testing.assert_allclose(
                r_py.dist[:, dests], r_vec.dist[:, dests], atol=1e-9
            )
            np.testing.assert_allclose(
                r_py.loads, r_vec.loads, rtol=1e-9
            )
            assert r_py.undelivered == r_vec.undelivered

    def test_auto_matches_fixed_backends(self):
        """auto picks one of the two stacks, never a third behavior."""
        network, demands, rng = make_instance(
            lambda g: powerlaw_topology(30, 3, g), seed=5
        )
        weights = rng.integers(1, 20, network.num_arcs).astype(np.float64)
        routings = {
            backend: RoutingEngine(network, backend=backend).route_class(
                weights, demands
            )
            for backend in ("python", "vector", "auto")
        }
        np.testing.assert_array_equal(
            routings["auto"].loads, routings["python"].loads
        )
        np.testing.assert_array_equal(
            routings["auto"].loads, routings["vector"].loads
        )


class TestIncrementalVectorParity:
    """IncrementalRouter under the vector backend == scratch python."""

    @pytest.mark.parametrize("backend", ["vector", "auto"])
    def test_moves_and_failures(self, backend):
        network, demands, rng = make_instance(
            lambda g: powerlaw_topology(30, 3, g), seed=23
        )
        weights = rng.integers(1, 20, network.num_arcs).astype(np.float64)
        router = IncrementalRouter(
            network, demands, weights, backend=backend
        )
        engine = RoutingEngine(network, backend="python")
        current = weights.copy()
        for step in range(25):
            if step % 5 == 4:
                scenario = random_scenario(network, rng, 1 + step % 2)
                got = router.route_scenario(scenario).routing
                expected = engine.route_class(current, demands, scenario)
            else:
                arc = int(rng.integers(0, network.num_arcs))
                new = float(rng.integers(1, 20))
                router.set_arc_weight(arc, new)
                current[arc] = new
                got = router.routing
                expected = engine.route_class(current, demands)
            np.testing.assert_array_equal(expected.loads, got.loads)
            np.testing.assert_array_equal(expected.masks, got.masks)
            assert expected.undelivered == got.undelivered


@pytest.mark.slow
class TestLargeInstanceParity:
    """>=100-node PLTopo: the sizes the vector backend exists for."""

    def test_pl120_bit_identical(self):
        network, demands, rng = make_instance(
            lambda g: powerlaw_topology(120, 3, g), seed=31
        )
        e_py = RoutingEngine(network, backend="python")
        e_vec = RoutingEngine(network, backend="vector")
        for trial in range(3):
            weights = rng.integers(1, 20, network.num_arcs).astype(
                np.float64
            )
            scenario = random_scenario(network, rng, trial)
            r_py = e_py.route_class(weights, demands, scenario)
            r_vec = e_vec.route_class(weights, demands, scenario)
            np.testing.assert_array_equal(r_py.loads, r_vec.loads)
            np.testing.assert_array_equal(r_py.masks, r_vec.masks)
            assert r_py.undelivered == r_vec.undelivered
            arc_delays = rng.uniform(1e-3, 1e-2, network.num_arcs)
            np.testing.assert_array_equal(
                e_py.path_delays(r_py, arc_delays),
                e_vec.path_delays(r_vec, arc_delays),
            )

    def test_pl120_incremental_failures(self):
        network, demands, rng = make_instance(
            lambda g: powerlaw_topology(120, 3, g), seed=37
        )
        weights = rng.integers(1, 20, network.num_arcs).astype(np.float64)
        router = IncrementalRouter(
            network, demands, weights, backend="vector"
        )
        engine = RoutingEngine(network, backend="python")
        for kind in (1, 2, 1):
            scenario = random_scenario(network, rng, kind)
            got = router.route_scenario(scenario).routing
            expected = engine.route_class(weights, demands, scenario)
            np.testing.assert_array_equal(expected.loads, got.loads)
            assert expected.undelivered == got.undelivered
