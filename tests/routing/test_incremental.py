"""Parity tests for the incremental delta-rerouting core.

The contract is strict: after any sequence of single-arc weight moves,
reverts, and failure scenarios, :class:`IncrementalRouter` must produce
``dist`` / ``masks`` / ``loads`` / ``undelivered`` **bit-identical** to a
from-scratch :meth:`RoutingEngine.route_class` call.  Assertions use
exact equality throughout.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing.engine import RoutingEngine
from repro.routing.failures import FailureScenario
from repro.routing.incremental import IncrementalRouter
from repro.scenarios import legacy_failures, node_failures
from repro.topology import rand_topology


def assert_routing_identical(incremental, scratch):
    """Exact equality of every array of two ClassRoutings."""
    np.testing.assert_array_equal(
        incremental.destinations, scratch.destinations
    )
    assert np.array_equal(incremental.dist, scratch.dist)
    assert np.array_equal(incremental.masks, scratch.masks)
    assert np.array_equal(incremental.loads, scratch.loads)
    assert np.array_equal(incremental.demands, scratch.demands)
    assert incremental.undelivered == scratch.undelivered


@st.composite
def router_cases(draw):
    """Random (network, weights, demands) instances."""
    seed = draw(st.integers(0, 2**31 - 1))
    num_nodes = draw(st.integers(8, 16))
    degree = draw(st.sampled_from([3.0, 4.0, 5.0]))
    gen = np.random.default_rng(seed)
    network = rand_topology(
        num_nodes, degree, gen, two_edge_connected=False
    )
    weights = gen.integers(1, 18, network.num_arcs).astype(np.float64)
    demands = gen.uniform(0.0, 5.0, size=(num_nodes, num_nodes))
    np.fill_diagonal(demands, 0.0)
    demands[gen.uniform(size=demands.shape) < 0.3] = 0.0
    return network, weights, demands, seed


@settings(max_examples=20, deadline=None)
@given(case=router_cases())
def test_move_sequences_bit_identical(case):
    """Long random move/revert sequences match route_class exactly."""
    network, weights, demands, seed = case
    gen = np.random.default_rng(seed + 1)
    engine = RoutingEngine(network)
    router = IncrementalRouter(network, demands, weights)
    current = weights.copy()
    for _ in range(30):
        arc = int(gen.integers(0, network.num_arcs))
        old = current[arc]
        new = float(gen.integers(1, 18))
        current[arc] = new
        router.set_arc_weight(arc, new)
        if gen.uniform() < 0.3:  # revert, like a rejected move
            current[arc] = old
            router.set_arc_weight(arc, old)
        assert_routing_identical(
            router.routing, engine.route_class(current, demands)
        )


@settings(max_examples=20, deadline=None)
@given(case=router_cases())
def test_failure_scenarios_bit_identical(case):
    """Arc, link and node failures match a scratch scenario routing."""
    network, weights, demands, seed = case
    gen = np.random.default_rng(seed + 2)
    engine = RoutingEngine(network)
    router = IncrementalRouter(network, demands, weights)
    scenarios = [s.failure for s in legacy_failures(network)]
    scenarios += [
        FailureScenario(failed_arcs=(int(a),), label=f"arc:{a}")
        for a in gen.choice(
            network.num_arcs, size=min(6, network.num_arcs), replace=False
        )
    ]
    scenarios += [
        s.failure
        for s in node_failures(
            network, nodes=gen.choice(network.num_nodes, 4, replace=False)
        )
    ]
    for scenario in scenarios:
        got = router.route_scenario(scenario).routing
        expected = engine.route_class(weights, demands, scenario)
        assert_routing_identical(got, expected)
    # scenario routing never mutates the base state
    assert_routing_identical(
        router.routing, engine.route_class(weights, demands)
    )


@settings(max_examples=10, deadline=None)
@given(case=router_cases())
def test_interleaved_moves_and_failures(case):
    """Moves, reverts and failure sweeps interleaved stay exact."""
    network, weights, demands, seed = case
    gen = np.random.default_rng(seed + 3)
    engine = RoutingEngine(network)
    router = IncrementalRouter(network, demands, weights)
    current = weights.copy()
    failures = [s.failure for s in legacy_failures(network)]
    for step in range(8):
        arc = int(gen.integers(0, network.num_arcs))
        new = float(gen.integers(1, 18))
        current[arc] = new
        router.set_arc_weight(arc, new)
        for scenario in failures[:: max(1, len(failures) // 5)]:
            got = router.route_scenario(scenario).routing
            expected = engine.route_class(current, demands, scenario)
            assert_routing_identical(got, expected)


class TestSyncAndReuse:
    @pytest.fixture
    def instance(self):
        gen = np.random.default_rng(3)
        network = rand_topology(12, 4.0, gen)
        weights = gen.integers(1, 15, network.num_arcs).astype(np.float64)
        demands = gen.uniform(0.0, 5.0, size=(12, 12))
        np.fill_diagonal(demands, 0.0)
        return network, weights, demands

    def test_sync_rebuild_on_large_diff(self, instance):
        network, weights, demands = instance
        router = IncrementalRouter(network, demands, weights)
        other = np.maximum(1.0, weights[::-1].copy())
        router.sync(other)
        assert router.stats.rebuilds == 2  # constructor + oversized sync
        expected = RoutingEngine(network).route_class(other, demands)
        assert_routing_identical(router.routing, expected)

    def test_sync_small_diff_uses_deltas(self, instance):
        network, weights, demands = instance
        router = IncrementalRouter(network, demands, weights)
        moved = weights.copy()
        moved[0] = moved[0] + 1
        moved[3] = max(1.0, moved[3] - 1)
        router.sync(moved)
        assert router.stats.rebuilds == 1
        assert router.stats.deltas == 2
        expected = RoutingEngine(network).route_class(moved, demands)
        assert_routing_identical(router.routing, expected)

    def test_unused_arc_increase_touches_nothing(self, instance):
        """The classic unused-arc shortcut is the trivial delta case."""
        network, weights, demands = instance
        router = IncrementalRouter(network, demands, weights)
        used = router.routing.used_arcs()
        unused = np.flatnonzero(~used)
        if unused.size == 0:
            pytest.skip("every arc used under this weight draw")
        before = router.stats.destinations_recomputed
        routing_before = router.routing
        touched = router.set_arc_weight(int(unused[0]), 20.0)
        assert touched == 0
        assert router.stats.destinations_recomputed == before
        # the assembled routing is still valid (and still cached)
        assert router.routing is routing_before

    def test_matching_destinations_exact(self, instance):
        network, weights, demands = instance
        router = IncrementalRouter(network, demands, weights)
        base = router.routing
        all_dests = frozenset(int(t) for t in router.destinations)
        assert router.matching_destinations(base) == all_dests
        assert router.matching_destinations(None) is None
        # a delta shrinks the matching set by exactly the touched rows
        arc = int(np.flatnonzero(base.used_arcs())[0])
        router.set_arc_weight(arc, 20.0)
        matching = router.matching_destinations(base)
        expected = frozenset(
            int(t)
            for row, t in enumerate(router.destinations)
            if np.array_equal(base.masks[row], router.routing.masks[row])
            and np.array_equal(
                base.dist[:, int(t)], router.routing.dist[:, int(t)]
            )
        )
        assert matching == expected

    def test_non_integral_weights_rejected_from_fast_dijkstra(
        self, instance
    ):
        """Float weights still route correctly (scipy fallback)."""
        network, weights, demands = instance
        w = weights + 0.5
        router = IncrementalRouter(network, demands, w)
        expected = RoutingEngine(network).route_class(w, demands)
        assert_routing_identical(router.routing, expected)

    def test_weight_below_one_rejected(self, instance):
        network, weights, demands = instance
        router = IncrementalRouter(network, demands, weights)
        with pytest.raises(ValueError, match=">= 1"):
            router.set_arc_weight(0, 0.0)

    def test_bad_demand_shape_rejected(self, instance):
        network, weights, _ = instance
        with pytest.raises(ValueError, match="shape"):
            IncrementalRouter(network, np.zeros((3, 3)), weights)
