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

from repro.routing.engine import PathDelayReuse, RoutingEngine
from repro.routing.failures import FailureScenario
from repro.routing.incremental import SYNC_DELTA_LIMIT, IncrementalRouter
from repro.routing.sweep import route_scenario_batch
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
    """Moves, rebuilds and failure sweeps interleaved stay exact.

    Every third step syncs past ``SYNC_DELTA_LIMIT`` (a rebuild), the
    others move one arc.  After each step the link failures route one
    by one and as one batch group on a twin router that took the same
    steps, and up to four node failures route one by one: both paths'
    structure rule must keep matching ``route_class`` whatever state
    the router reached, and the per-node DAG out-arc flags it reads
    must still be the ones of the current masks.
    """
    network, weights, demands, seed = case
    gen = np.random.default_rng(seed + 3)
    engine = RoutingEngine(network)
    router = IncrementalRouter(network, demands, weights)
    twin = IncrementalRouter(network, demands, weights)
    current = weights.copy()
    links = [s.failure for s in legacy_failures(network)]
    for step in range(8):
        if step % 3 == 2:
            arcs = gen.choice(
                network.num_arcs, SYNC_DELTA_LIMIT + 1, replace=False
            )
            current[arcs] = current[arcs] % 17 + 1  # each one changes
            rebuilds = router.stats.rebuilds
            router.sync(current)
            twin.sync(current)
            assert router.stats.rebuilds == rebuilds + 1
        else:
            arc = int(gen.integers(0, network.num_arcs))
            current[arc] = float(gen.integers(1, 18))
            router.set_arc_weight(arc, current[arc])
            twin.set_arc_weight(arc, current[arc])
        assert np.array_equal(
            router._base_out, router._has_dag_out(router._masks)
        )
        batched, _ = route_scenario_batch(twin, links)
        for scenario, twin_routing in zip(links, batched):
            expected = engine.route_class(current, demands, scenario)
            got = router.route_scenario(scenario).routing
            assert_routing_identical(got, expected)
            assert_routing_identical(twin_routing.routing, expected)
        nodes = gen.choice(
            network.num_nodes, min(4, network.num_nodes), replace=False
        )
        for scenario in node_failures(network, nodes=nodes):
            got = router.route_scenario(scenario.failure).routing
            expected = engine.route_class(
                current, demands, scenario.failure
            )
            assert_routing_identical(got, expected)


def assert_state_matches_fresh_build(router, weights, context=""):
    """The router's whole base state equals a fresh build at ``weights``."""
    fresh = IncrementalRouter(router.network, router._demands, weights)
    assert np.array_equal(router.weights, fresh.weights), context
    assert np.array_equal(router._dist_cols, fresh._dist_cols), context
    assert np.array_equal(router._masks, fresh._masks), context
    assert np.array_equal(router._contribs, fresh._contribs), context
    assert np.array_equal(router._und, fresh._und), context
    assert_routing_identical(router.routing, fresh.routing)


@settings(max_examples=20, deadline=None)
@given(case=router_cases())
def test_sync_back_restores_the_journal(case):
    """A sync that takes the last delta's arc back restores its journal.

    Random moves are rolled back (alone, or together with up to
    ``SYNC_DELTA_LIMIT - 1`` other arcs), kept, or followed by a
    rebuild; after every step the router's whole state equals a fresh
    build at the current weights, and every effective rollback is a
    restore, not a delta.
    """
    network, weights, demands, seed = case
    gen = np.random.default_rng(seed + 5)
    router = IncrementalRouter(network, demands, weights)
    current = weights.copy()
    for step in range(30):
        arc = int(gen.integers(network.num_arcs))
        moved = current.copy()
        moved[arc] = float(gen.integers(1, 18))
        router.sync(moved)
        roll = gen.uniform()
        if roll < 0.5:  # a rejected move
            restores, deltas = router.stats.restores, router.stats.deltas
            router.sync(current)
            effective = moved[arc] != current[arc]
            assert router.stats.restores == restores + effective
            assert router.stats.deltas == deltas
        elif roll < 0.7:  # rejected, and other arcs move too
            others = gen.choice(
                network.num_arcs,
                int(gen.integers(1, SYNC_DELTA_LIMIT)),
                replace=False,
            )
            current[others] = gen.integers(1, 18, others.size)
            router.sync(current)
        elif roll < 0.8:  # a rebuild, which drops the journal
            others = gen.choice(
                network.num_arcs, SYNC_DELTA_LIMIT + 1, replace=False
            )
            current = moved
            current[others] = current[others] % 17 + 1
            rebuilds = router.stats.rebuilds
            router.sync(current)
            assert router.stats.rebuilds == rebuilds + 1
        else:  # kept
            current = moved
        assert_state_matches_fresh_build(router, current, f"step {step}")


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

    def test_journal_covers_only_the_last_delta(self, instance):
        """Another delta replaces the journal and a rebuild drops it: a
        sync that takes an older delta's arc back replays a delta; one
        that takes the last delta back restores the assembled routing
        it had."""
        network, weights, demands = instance
        router = IncrementalRouter(network, demands, weights)
        first = weights.copy()
        first[0] += 3
        router.sync(first)
        second = first.copy()
        second[1] += 3
        router.sync(second)
        back = second.copy()
        back[0] = weights[0]
        router.sync(back)  # arc 0 back, but the journal is arc 1's
        assert router.stats.restores == 0
        assert_state_matches_fresh_build(router, back)

        routing = router.routing
        moved = back.copy()
        moved[5] += 2
        router.sync(moved)  # a delta on arc 5, then straight back
        router.sync(back)
        assert router.stats.restores == 1
        assert router.routing is routing
        assert_state_matches_fresh_build(router, back)

        router.sync(second)  # journalled, then a rebuild drops it
        rebuilt = second.copy()
        rebuilt[2 : 3 + SYNC_DELTA_LIMIT] += 1
        router.sync(rebuilt)
        assert router.stats.rebuilds == 2
        back = rebuilt.copy()
        back[0] = weights[0]
        router.sync(back)
        assert router.stats.restores == 1
        assert_state_matches_fresh_build(router, back)

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

    def test_normal_column_rule_exact(self, instance):
        """PathDelayReuse.fill takes exactly the cells whose mask row and
        masked arc delays equal the NORMAL ones, rows aligned by
        destination, and those columns equal a fresh DP."""
        network, weights, demands = instance
        engine = RoutingEngine(network)
        router = IncrementalRouter(network, demands, weights)
        base = router.routing
        delays = np.random.default_rng(0).uniform(
            1e-3, 1e-2, network.num_arcs
        )
        reuse = PathDelayReuse(
            pair_delays=engine.path_delays(base, delays),
            arc_delays=delays,
            destinations=base.destinations,
            masks=base.masks,
        )
        arc = int(np.flatnonzero(base.used_arcs())[0])
        router.set_arc_weight(arc, 20.0)
        removed = int(router.destinations[0])
        scenario = node_failures(network, nodes=[removed])[0].failure
        changed = delays.copy()
        changed[int(network.arcs_of_node(removed)[0])] *= 2.0
        # A node removal disables arcs on every DAG, so all its cells are
        # pending; it checks the row alignment of a destination subset.
        scenario_routing = router.route_scenario(scenario).routing
        assert len(scenario_routing.destinations) < len(base.destinations)
        for routing in (router.routing, scenario_routing):
            dests = routing.destinations
            out = np.full((1, network.num_nodes, network.num_nodes), np.nan)
            pending = reuse.fill(
                dests, routing.masks[None], changed[None], out
            )[0]
            rows = np.searchsorted(base.destinations, dests)
            expected = [
                not np.array_equal(routing.masks[d], base.masks[rows[d]])
                or bool((base.masks[rows[d]] & (changed != delays)).any())
                for d in range(len(dests))
            ]
            assert pending.tolist() == expected
            assert routing is scenario_routing or not all(expected)
            fresh = engine.path_delays(routing, changed)
            taken = dests[~pending]
            assert np.array_equal(
                out[0][:, taken], fresh[:, taken], equal_nan=True
            )

    def test_non_integral_weights_rejected_from_fast_dijkstra(
        self, instance
    ):
        """Bit-identity rests on exact integer path sums, so the
        constructor and a single-arc delta refuse a non-integral weight,
        and a refused delta leaves the router as it was."""
        network, weights, demands = instance
        with pytest.raises(ValueError, match="integers"):
            IncrementalRouter(network, demands, weights + 0.5)
        router = IncrementalRouter(network, demands, weights)
        for bad in (weights[0] + 0.5, np.inf):
            with pytest.raises(ValueError, match="integers"):
                router.set_arc_weight(0, bad)
        assert np.array_equal(router.weights, weights)
        assert router.stats.deltas == 0
        expected = RoutingEngine(network).route_class(weights, demands)
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
