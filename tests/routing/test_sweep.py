"""Tests for the scenario-axis batch sweep engine (routing layer).

The contract is strict bit-identity: every routing produced by
``route_scenario_batch`` must equal the per-scenario
``route_scenario`` result exactly, the cross-scenario delay kernels
must replay the per-scenario columns exactly, and the planner must
partition every scenario into exactly one bucket.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import OptimizerConfig
from repro.core.evaluation import DtrEvaluator
from repro.core.weights import WeightSetting
from repro.exp.common import make_instance
from repro.routing import incremental
from repro.routing.engine import RoutingEngine
from repro.routing.fastpath import PropagationPlan, fast_propagate_worst_delay
from repro.routing.incremental import CLOSURE_STACK_BYTES, IncrementalRouter
from repro.routing.network import Network
from repro.routing.sweep import (
    SWEEP_STATE_BUDGET,
    flush_delay_batch,
    group_scenario_budget,
    kernel_cell_budget,
    plan_sweep,
    route_scenario_batch,
)
from repro.routing.vectorized import (
    BatchPlan,
    batch_propagate_worst_delay,
    build_schedule,
)
from repro.scenarios import (
    GaussianSurge,
    Scenario,
    build_scenarios,
    cross,
    k_link_failures,
    legacy_failures,
    node_failures,
    srlg_failures,
)
from repro.routing.failures import NORMAL, FailureScenario
from repro.topology import rand_topology, scale_to_diameter
from repro.traffic import dtr_traffic, scale_to_utilization


@pytest.fixture(scope="module")
def instance():
    gen = np.random.default_rng(3)
    network = scale_to_diameter(rand_topology(14, 4.0, gen), 0.025)
    traffic = scale_to_utilization(
        network, dtr_traffic(14, gen, 1.0), 0.4, "mean"
    )
    return network, traffic


def fresh_router(network, traffic, weights):
    return IncrementalRouter(network, traffic.delay.values, weights)


def ring_instance(num_nodes: int = 20):
    """A ring: failing one arc next to a node re-routes half the ring."""
    network = Network.from_networkx(nx.cycle_graph(num_nodes), name="ring")
    gen = np.random.default_rng(2)
    traffic = scale_to_utilization(
        network, dtr_traffic(num_nodes, gen, 1.0), 0.3, "mean"
    )
    return network, traffic


def assert_batch_matches(network, demands, weights, scenarios):
    """route_scenario_batch equals per-scenario route_scenario."""
    reference = IncrementalRouter(network, demands, weights)
    expected = [reference.route_scenario(s) for s in scenarios]
    batched = IncrementalRouter(network, demands, weights)
    got, _ = route_scenario_batch(batched, scenarios)
    assert len(got) == len(expected)
    for exp, act in zip(expected, got):
        assert np.array_equal(exp.routing.dist, act.routing.dist)
        assert np.array_equal(exp.routing.masks, act.routing.masks)
        assert np.array_equal(exp.routing.loads, act.routing.loads)
        assert exp.routing.undelivered == act.routing.undelivered
    assert batched.stats == reference.stats
    return got


def random_weights(network, seed):
    rng = np.random.default_rng(seed)
    setting = WeightSetting.random(
        network.num_arcs, OptimizerConfig().weights, rng
    )
    return np.asarray(setting.delay, dtype=np.float64)


class TestPlanner:
    def test_every_index_in_exactly_one_bucket(self, instance):
        network, _ = instance
        scenarios = list(
            srlg_failures(network, num_groups=2, group_size=2, seed=1)
            + node_failures(network, nodes=[0, 2])
            + cross(
                k_link_failures(network, k=2, max_scenarios=2, seed=1),
                [GaussianSurge(seed=5)],
            )
        ) + [NORMAL, Scenario()]
        plan = plan_sweep(scenarios, network.num_nodes, network.num_arcs)
        seen = sorted(
            [i for group in plan.batch_groups for i in group]
            + [i for _, ids in plan.variant_groups for i in ids]
            + list(plan.legacy)
        )
        assert seen == list(range(len(scenarios)))
        assert plan.num_scenarios == len(scenarios)
        # node failures and the normal scenarios stay on the legacy path
        assert len(plan.legacy) == 4
        # the cross product groups under one variant digest
        assert len(plan.variant_groups) == 1
        assert len(plan.variant_groups[0][1]) == 2

    def test_group_budget_bounds_group_size(self, instance):
        network, _ = instance
        failures = [s.failure for s in legacy_failures(network)]
        budget = group_scenario_budget(network.num_nodes, network.num_arcs)
        plan = plan_sweep(failures, network.num_nodes, network.num_arcs)
        assert all(len(g) <= budget for g in plan.batch_groups)
        # small instance: the whole sweep fits one group
        assert len(plan.batch_groups) == 1

    def test_budgets_scale_down_with_size(self):
        assert group_scenario_budget(1000, 6000) < group_scenario_budget(
            30, 180
        )
        assert kernel_cell_budget(5000) < kernel_cell_budget(100)
        assert kernel_cell_budget(10**9) >= 64
        # The group budget counts, per scenario: both classes' distance
        # matrices, mask rows, hit flags and loads, plus the delay
        # stage's path delays, stacked delay-class distances and masks
        # and four arc vectors (D = N destinations at most); the
        # closure's two chunk stacks are set aside first.
        state = SWEEP_STATE_BUDGET - 2 * CLOSURE_STACK_BYTES
        for n, a in ((30, 138), (64, 372), (100, 588), (400, 2394)):
            per_scenario = (
                2 * (8 * n * n + n * a + n + 8 * a)
                + 8 * n * n
                + 8 * n * n + n * a
                + 32 * a
            )
            budget = group_scenario_budget(n, a)
            assert budget * per_scenario <= state
            assert (budget + 1) * per_scenario > state


class TestBatchRoutingParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batch_equals_per_scenario(self, instance, seed):
        network, traffic = instance
        weights = random_weights(network, seed)
        scenarios = [
            s.failure
            for s in (
                srlg_failures(network, num_groups=3, group_size=2, seed=seed)
                + k_link_failures(
                    network, k=2, max_scenarios=4, seed=seed
                )
            )
        ]
        assert_batch_matches(
            network, traffic.delay.values, weights, scenarios
        )
        _, handoffs = route_scenario_batch(
            fresh_router(network, traffic, weights), scenarios
        )
        # handoff columns name real (scenario, destination) cells
        for handoff in handoffs:
            for i, t in handoff.cells:
                assert 0 <= i < len(scenarios)
                assert 0 <= t < network.num_nodes

    def test_memo_warm_batch_still_identical(self, instance):
        """Repeat batches replay identical bits with no memo traffic.

        Batch sweeps price each setting once, so they neither probe nor
        fill the propagation memo or the engine's delay memo; both
        memos serve the move and per-scenario paths.
        """
        network, traffic = instance
        rng = np.random.default_rng(9)
        setting = WeightSetting.random(
            network.num_arcs, OptimizerConfig().weights, rng
        )
        weights = np.asarray(setting.delay, dtype=np.float64)
        scenarios = [
            s.failure
            for s in srlg_failures(
                network, num_groups=4, group_size=2, seed=9
            )
        ]
        router = fresh_router(network, traffic, weights)
        counts = (router._memo.hits, router._memo.misses)
        first, _ = route_scenario_batch(router, scenarios)
        second, _ = route_scenario_batch(router, scenarios)
        for a, b in zip(first, second):
            assert np.array_equal(a.routing.loads, b.routing.loads)
            assert a.routing.undelivered == b.routing.undelivered
        assert (router._memo.hits, router._memo.misses) == counts

        # A whole evaluator sweep leaves both memos as they were too.
        evaluator = DtrEvaluator(network, traffic, OptimizerConfig())
        normal = evaluator.evaluate_normal(setting)
        memos = [r._memo for r in evaluator._routers.values()]
        before = [(m.hits, m.misses) for m in memos]
        delay_entries = len(evaluator.engine._delay_memo)
        evaluator.evaluate_scenarios(setting, scenarios, reuse=normal)
        assert [(m.hits, m.misses) for m in memos] == before
        assert len(evaluator.engine._delay_memo) == delay_entries


class TestGroupCases:
    """Parity of the group arrays on the cases their shortcuts branch on."""

    def test_srlg_disconnecting_a_node(self, instance):
        network, traffic = instance
        node = int(np.argmin([network.degree(v) for v in range(14)]))
        cut = FailureScenario(
            failed_arcs=tuple(int(a) for a in network.arcs_of_node(node)),
            label="cut",
        )
        scenarios = [cut] + [
            s.failure
            for s in srlg_failures(network, num_groups=2, group_size=2, seed=3)
        ]
        got = assert_batch_matches(
            network, traffic.delay.values, random_weights(network, 3),
            scenarios,
        )
        assert got[0].routing.undelivered > 0
        assert np.isinf(got[0].routing.dist[:, node]).sum() == 13

    def test_cone_past_the_repair_limit(self):
        network, traffic = ring_instance()
        weights = np.ones(network.num_arcs)
        arc = network.arc_id(1, 0)
        router = IncrementalRouter(network, traffic.delay.values, weights)
        row = int(np.searchsorted(router.destinations, 0))
        # Nodes 1..9 all route to 0 over the failed arc: the cone is
        # larger than the repair limit, so a full Dijkstra column runs.
        assert router._repaired_column(
            router._dist_cols[:, row], router._masks[row], [arc], {arc},
            None,
        ) is None
        scenarios = [
            FailureScenario(failed_arcs=(arc,), label="ring"),
            FailureScenario(
                failed_arcs=(network.arc_id(5, 6),), label="small"
            ),
        ]
        assert_batch_matches(
            network, traffic.delay.values, weights, scenarios
        )

    def test_non_integral_weights(self, instance):
        """A sync to non-integral weights is refused, by rebuild and by
        single-arc delta alike, before it reaches the group rule (whose
        cone repair and heap Dijkstra need exact sums); the router then
        still routes the group as a fresh one does."""
        network, traffic = instance
        weights = random_weights(network, 5)
        scenarios = [
            s.failure
            for s in srlg_failures(network, num_groups=3, group_size=2, seed=5)
            + k_link_failures(network, k=2, max_scenarios=3, seed=5)
        ]
        router = fresh_router(network, traffic, weights)
        rebuild, delta = weights.copy(), weights.copy()
        rebuild[::3] += 0.5
        delta[4] += 0.5
        for bad in (rebuild, delta):
            with pytest.raises(ValueError, match="integers"):
                router.sync(bad)
        assert np.array_equal(router.weights, weights)
        got, _ = route_scenario_batch(router, scenarios)
        expected = assert_batch_matches(
            network, traffic.delay.values, weights, scenarios
        )
        for exp, act in zip(expected, got):
            assert np.array_equal(exp.routing.dist, act.routing.dist)
            assert np.array_equal(exp.routing.masks, act.routing.masks)
            assert np.array_equal(exp.routing.loads, act.routing.loads)
            assert exp.routing.undelivered == act.routing.undelivered

    def test_group_of_one(self, instance):
        network, traffic = instance
        scenario = srlg_failures(network, num_groups=1, group_size=3, seed=4)
        assert_batch_matches(
            network, traffic.delay.values, random_weights(network, 4),
            [scenario[0].failure],
        )

    def test_dags_avoid_every_failed_arc(self, instance):
        network, traffic = instance
        weights = random_weights(network, 6)
        # An arc heavier than any path is on no shortest-path DAG.
        unused = [0, 7, 20]
        weights[unused] = 10_000.0
        got = assert_batch_matches(
            network, traffic.delay.values, weights,
            [
                FailureScenario(failed_arcs=(a,), label=str(a))
                for a in unused
            ],
        )
        base = IncrementalRouter(network, traffic.delay.values, weights)
        for scenario_routing in got:
            assert np.array_equal(
                scenario_routing.routing.loads, base.routing.loads
            )
            # every mask row is the NORMAL one: all delay columns reusable
            assert np.array_equal(
                scenario_routing.routing.masks, base.routing.masks
            )

    def test_evaluator_with_one_class_untouched(self, instance):
        """One class's DAGs avoid the failed arcs, the other's do not:
        the group mixes shortcut routings with batch-routed ones."""
        network, traffic = instance
        delay = random_weights(network, 7)
        tput = random_weights(network, 8)
        unused = [1, 8, 21, 30]
        delay[unused] = 10_000.0
        setting = WeightSetting(delay, tput)
        failures = [
            FailureScenario(failed_arcs=(a,), label=str(a)) for a in unused
        ] + [
            s.failure
            for s in srlg_failures(network, num_groups=2, group_size=2, seed=7)
        ]
        evaluator = DtrEvaluator(network, traffic, OptimizerConfig())
        normal = evaluator.evaluate_normal(setting)
        assert not normal.routing_delay.used_arcs()[unused].any()
        assert normal.routing_tput.used_arcs()[unused].any()
        batched = evaluator.evaluate_scenarios(setting, failures, reuse=normal)
        reference = DtrEvaluator(network, traffic, OptimizerConfig())
        ref_normal = reference.evaluate_normal(setting)
        for evaluation, failure in zip(batched.evaluations, failures):
            expected = reference.evaluate(setting, failure, reuse=ref_normal)
            assert evaluation.cost == expected.cost
            assert np.array_equal(evaluation.loads_delay, expected.loads_delay)
            assert np.array_equal(evaluation.loads_tput, expected.loads_tput)
            assert np.array_equal(evaluation.arc_delay, expected.arc_delay)
            assert np.array_equal(
                evaluation.pair_delays, expected.pair_delays, equal_nan=True
            )


def group_structures(router, scenarios, bound):
    """``_group_structure`` with the closure's node bound set to ``bound``,
    plus the repair path each call took."""
    taken = []
    closure, cone = incremental._closure_columns, router._cone_columns

    def spy_closure(*args):
        taken.append("closure")
        return closure(*args)

    def spy_cone(*args):
        taken.append("cone")
        return cone(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(incremental, "CLOSURE_MAX_NODES", bound)
        patch.setattr(incremental, "_closure_columns", spy_closure)
        patch.setattr(router, "_cone_columns", spy_cone)
        group = router._group_structure(scenarios)
    return group, taken


class TestRepairPaths:
    """The min-plus closure and the cone repair give the same group
    structure bit for bit, and the rule picks between them by the group
    and the instance size alone."""

    @settings(max_examples=25, deadline=None)
    @given(
        family=st.sampled_from(["rand", "pl"]),
        num_nodes=st.integers(6, 20),
        seed=st.integers(0, 10_000),
    )
    def test_closure_equals_cone_repair(self, family, num_nodes, seed):
        inst = make_instance(family, num_nodes, 3.5, seed)
        network = inst.network
        scenarios = [
            s.failure
            for s in build_scenarios("link,srlg,multi2", network, seed)
        ]
        node = seed % network.num_nodes
        scenarios.append(
            FailureScenario(
                failed_arcs=tuple(
                    int(a) for a in network.arcs_of_node(node)
                ),
                label="cut",
            )
        )
        router = IncrementalRouter(
            network, inst.traffic.delay.values, random_weights(network, seed)
        )
        closed, closure_path = group_structures(
            router, scenarios, network.num_nodes
        )
        repaired, cone_path = group_structures(
            router, scenarios, network.num_nodes - 1
        )
        assert closure_path == ["closure"]
        assert cone_path == ["cone"]
        assert np.array_equal(closed.dist, repaired.dist)
        assert np.array_equal(closed.masks, repaired.masks)
        assert np.array_equal(closed.hit, repaired.hit)
        # The cut leaves the node unreachable from every other node.
        others = np.arange(network.num_nodes) != node
        if node in router.destinations:
            assert np.isinf(closed.dist[-1][others, node]).all()

    def test_one_scenario_to_repair_takes_the_cone(self, instance):
        network, traffic = instance
        weights = random_weights(network, 6)
        # An arc heavier than any path is on no shortest-path DAG.
        weights[[0, 7]] = 10_000.0
        node = int(np.argmin([network.degree(v) for v in range(14)]))
        cut = FailureScenario(
            failed_arcs=tuple(int(a) for a in network.arcs_of_node(node)),
            label="cut",
        )
        unused = [
            FailureScenario(failed_arcs=(a,), label=str(a)) for a in (0, 7)
        ]
        router = fresh_router(network, traffic, weights)
        _, path = group_structures(router, [cut] + unused, 64)
        assert path == ["cone"]
        _, path = group_structures(router, unused, 64)
        assert path == []
        srlg = [
            s.failure
            for s in srlg_failures(network, num_groups=2, group_size=2, seed=3)
        ]
        _, path = group_structures(router, [cut] + srlg, 64)
        assert path == ["closure"]


class TestDelayRowsKernel:
    def test_per_column_rows_match_python_kernel(self, instance):
        """Columns of different scenarios (distinct arc-delay vectors)
        sharing one batched DP equal the per-scenario python kernel."""
        network, traffic = instance
        rng = np.random.default_rng(4)
        setting = WeightSetting.random(
            network.num_arcs, OptimizerConfig().weights, rng
        )
        weights = np.asarray(setting.delay, dtype=np.float64)
        router = fresh_router(network, traffic, weights)
        routing = router.routing
        plan = PropagationPlan.for_network(network)
        batch_plan = BatchPlan.for_network(network)
        num_scenarios = 3
        delays = rng.uniform(0.001, 0.01, (num_scenarios, network.num_arcs))
        dests = routing.destinations
        # every (scenario, destination) pair is one batch column
        rows = np.tile(np.arange(len(dests)), num_scenarios)
        delay_rows = np.repeat(
            np.arange(num_scenarios, dtype=np.intp), len(dests)
        )
        masks = routing.masks[rows]
        dist_cols = routing.dist[:, dests[rows]]
        columns = batch_propagate_worst_delay(
            batch_plan,
            masks,
            dist_cols,
            delays,
            dests[rows],
            delay_rows=delay_rows,
        )
        for j in range(len(rows)):
            t = int(dests[rows[j]])
            expected = fast_propagate_worst_delay(
                plan,
                routing.masks[rows[j]],
                routing.dist[:, t],
                delays[delay_rows[j]].tolist(),
                t,
            )
            assert np.array_equal(columns[:, j], np.asarray(expected))

    def test_schedule_replay_matches_fresh_build(self, instance):
        """A prebuilt schedule (masks/dist omitted) replays identical
        bits — the handed-schedule path of the delay flush."""
        network, traffic = instance
        rng = np.random.default_rng(6)
        setting = WeightSetting.random(
            network.num_arcs, OptimizerConfig().weights, rng
        )
        weights = np.asarray(setting.delay, dtype=np.float64)
        router = fresh_router(network, traffic, weights)
        routing = router.routing
        batch_plan = BatchPlan.for_network(network)
        dests = routing.destinations
        delays = rng.uniform(0.001, 0.01, network.num_arcs)
        schedule = build_schedule(
            batch_plan, routing.masks, routing.dist[:, dests]
        )
        fresh = batch_propagate_worst_delay(
            batch_plan, routing.masks, routing.dist[:, dests], delays, dests
        )
        replayed = batch_propagate_worst_delay(
            batch_plan, None, None, delays, dests, schedule=schedule
        )
        assert np.array_equal(fresh, replayed)


def flush_case(instance, leftover):
    """Flush a group's delay DPs; return ``(out, expected, pending)``.

    With ``leftover`` cells pending, the rest are pre-filled with their
    expected columns and no load schedules are handed over.
    """
    network, traffic = instance
    rng = np.random.default_rng(8)
    scenarios = [
        s.failure
        for s in srlg_failures(network, num_groups=3, group_size=2, seed=8)
    ]
    router = fresh_router(network, traffic, random_weights(network, 8))
    routings, handoffs = route_scenario_batch(router, scenarios)
    n = network.num_nodes
    dests = router.destinations
    delays = rng.uniform(0.001, 0.01, (len(routings), network.num_arcs))
    expected = np.stack(
        [
            RoutingEngine(network).path_delays(sr.routing, row)
            for sr, row in zip(routings, delays)
        ]
    )
    out = np.full((len(routings), n, n), np.nan)
    pending = np.ones((len(routings), len(dests)), dtype=bool)
    shared = [
        (
            np.asarray([i for i, _ in h.cells], dtype=np.intp),
            np.asarray([t for _, t in h.cells], dtype=np.intp),
            h.schedule,
        )
        for h in handoffs
    ]
    if leftover is not None:
        pending[:] = False
        pending.flat[rng.choice(pending.size, leftover, replace=False)] = True
        rows, pos = np.nonzero(~pending)
        out[rows, :, dests[pos]] = expected[rows, :, dests[pos]]
        shared = []
    flush_delay_batch(
        RoutingEngine(network),
        "worst",
        dests,
        np.stack([sr.routing.masks for sr in routings]),
        np.stack([sr.routing.dist for sr in routings]),
        delays,
        pending,
        out,
        shared,
    )
    return out, expected, pending


class TestFlushDelayBatch:
    def test_flush_fills_pending_cells(self, instance):
        """flush_delay_batch equals per-scenario path_delays columns,
        through the replayed load schedules and the chunked DP."""
        out, expected, pending = flush_case(instance, None)
        assert not pending.any()
        assert np.array_equal(out, expected, equal_nan=True)

    def test_few_leftover_cells_take_the_python_kernel(self, instance):
        """A handful of pending cells run per destination; cells not
        pending are left alone."""
        out, expected, pending = flush_case(instance, 5)
        assert not pending.any()
        assert np.array_equal(out, expected, equal_nan=True)
