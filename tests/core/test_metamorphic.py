"""Metamorphic laws of the cost oracle, checked at the evaluator level.

In the spirit of Lev, Tennenholtz & Zohar's axiomatic approach to
routing: transform the input in a way whose effect on the output is
known, and check that the evaluator obeys the law.  Sweeps run through
the default ``evaluate_scenarios`` over link, SRLG and surge sets, so
the batch engine, the failed-arc shortcut and the incremental router
are all under test.  ``tests/routing/test_invariants.py`` holds the
engine-level forms (loads linear in demand, an unused-arc failure).

* Demands x 4 multiply every load by 4 (a power of two, so bitwise).
* Weights x 3 leave every shortest-path DAG, and so every cost, as is.
* Failing an arc that neither class's NORMAL DAG uses leaves the costs
  as they are, also when no ``reuse`` lets the shortcut answer.
* Relabelling the nodes changes only the fold order of the floats.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import PAPER_CONFIG
from repro.core.evaluation import DtrEvaluator, ScenarioEvaluation
from repro.core.weights import WeightSetting
from repro.exp.common import Instance, make_instance
from repro.routing.arcs import Arc
from repro.routing.failures import FailureScenario
from repro.routing.network import Network
from repro.scenarios import build_scenarios, gaussian_surges
from repro.traffic.gravity import DtrTraffic
from repro.traffic.matrix import TrafficMatrix

SEEDS = (0, 1, 2)


def _instance(seed: int) -> "tuple[Instance, WeightSetting]":
    instance = make_instance("rand", 10, 3.5, seed)
    setting = WeightSetting.random(
        instance.network.num_arcs,
        PAPER_CONFIG.weights,
        np.random.default_rng(seed),
    )
    return instance, setting


def _sweep(network, traffic, setting, scenarios):
    evaluator = DtrEvaluator(network, traffic, PAPER_CONFIG)
    return evaluator.evaluate_scenarios(setting, scenarios).evaluations


def assert_same_outcome(
    a: ScenarioEvaluation, b: ScenarioEvaluation, label: str
) -> None:
    """Costs, violations, loads and pair delays equal bit for bit."""
    assert a.cost.lam == b.cost.lam, label
    assert a.cost.phi == b.cost.phi, label
    assert a.sla.violations == b.sla.violations, label
    for name in ("loads_delay", "loads_tput", "pair_delays"):
        np.testing.assert_array_equal(
            getattr(a, name), getattr(b, name), err_msg=f"{label}: {name}"
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_loads_scale_with_demand(seed):
    instance, setting = _instance(seed)
    network, traffic = instance.network, instance.traffic
    scenarios = build_scenarios("link,srlg,surge", network, seed)
    base = _sweep(network, traffic, setting, scenarios)
    scaled = _sweep(network, traffic.scaled(4.0), setting, scenarios)
    for scenario, a, b in zip(scenarios, base, scaled):
        np.testing.assert_array_equal(
            b.loads_delay, 4.0 * a.loads_delay, err_msg=scenario.label
        )
        np.testing.assert_array_equal(
            b.loads_tput, 4.0 * a.loads_tput, err_msg=scenario.label
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_scaling_weights_keeps_costs(seed):
    instance, setting = _instance(seed)
    network, traffic = instance.network, instance.traffic
    tripled = WeightSetting(3 * setting.delay, 3 * setting.tput)
    scenarios = build_scenarios("link,srlg,surge", network, seed)
    base = _sweep(network, traffic, setting, scenarios)
    scaled = _sweep(network, traffic, tripled, scenarios)
    for scenario, a, b in zip(scenarios, base, scaled):
        assert_same_outcome(a, b, scenario.label)


@pytest.mark.parametrize("seed", SEEDS)
def test_failing_an_unused_arc_keeps_costs(seed):
    """Gravity traffic puts nearly every arc on some DAG, so one arc is
    first made too heavy for any shortest path to take."""
    instance, setting = _instance(seed)
    heavy = 1 + int(setting.delay.sum() + setting.tput.sum())
    setting.set_arc(seed, heavy, heavy)
    evaluator = DtrEvaluator(
        instance.network, instance.traffic, PAPER_CONFIG
    )
    normal = evaluator.evaluate_normal(setting)
    used = normal.routing_delay.used_arcs() | normal.routing_tput.used_arcs()
    unused = np.flatnonzero(~used).tolist()
    assert unused, "the law needs an arc that no DAG uses"
    for arc in unused:
        label = f"arc:{arc}"
        failed = evaluator.evaluate(
            setting, FailureScenario((arc,), label=label)
        )
        assert_same_outcome(failed, normal, label)


def _relabelled(
    network: Network, traffic: DtrTraffic, perm: np.ndarray
) -> "tuple[Network, DtrTraffic]":
    """Node ``v`` becomes ``perm[v]``; arc ids keep their order."""
    arcs = [
        Arc(int(perm[a.src]), int(perm[a.dst]), a.capacity, a.prop_delay)
        for a in network.arcs
    ]
    inverse = np.argsort(perm)
    matrices = [
        TrafficMatrix(m.values[np.ix_(inverse, inverse)], name=m.name)
        for m in (traffic.delay, traffic.throughput)
    ]
    return Network(network.num_nodes, arcs), DtrTraffic(*matrices)


def assert_close_outcome(
    a: ScenarioEvaluation, b: ScenarioEvaluation, label: str
) -> None:
    """Violations exactly, costs and loads within a relative 1e-9."""
    assert a.sla.violations == b.sla.violations, label
    np.testing.assert_allclose(
        [b.cost.lam, b.cost.phi],
        [a.cost.lam, a.cost.phi],
        rtol=1e-9,
        err_msg=label,
    )
    for name in ("loads_delay", "loads_tput"):
        np.testing.assert_allclose(
            getattr(b, name), getattr(a, name), rtol=1e-9, err_msg=label
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_relabelling_nodes_keeps_costs(seed):
    """Failure scenarios name arcs, whose ids survive the relabelling;
    a surge draws per matrix entry, so each surged matrix is relabelled
    after the draw and evaluated as the base traffic instead."""
    instance, setting = _instance(seed)
    network, traffic = instance.network, instance.traffic
    perm = np.random.default_rng(seed).permutation(network.num_nodes)
    scenarios = build_scenarios("link,srlg", network, seed)
    base = _sweep(network, traffic, setting, scenarios)
    moved = _sweep(
        *_relabelled(network, traffic, perm), setting, scenarios
    )
    for scenario, a, b in zip(scenarios, base, moved):
        assert_close_outcome(a, b, scenario.label)
    for surge in gaussian_surges(count=3, seed=seed):
        surged = surge.variant.apply(traffic)
        a = DtrEvaluator(network, surged, PAPER_CONFIG)
        b = DtrEvaluator(*_relabelled(network, surged, perm), PAPER_CONFIG)
        assert_close_outcome(
            a.evaluate_normal(setting), b.evaluate_normal(setting), surge.label
        )
