"""An independent reference for the cost oracle: path enumeration on networkx.

Every other parity test compares one production path with a sibling
built on the same routing kernels (``spf``, ``fastpath``,
``vectorized``, ...), so a bug those paths share passes all of them.
This oracle recomputes a scenario's outcome from the paper's
definitions instead, by enumerating shortest paths:

* a class is routed on a ``networkx.DiGraph`` without the failed arcs,
  after zeroing the demand rows and columns of removed nodes (the
  node-failure policy of docs/DESIGN.md);
* an arc ``(u, v)`` lies on the shortest-path DAG towards ``t`` when
  ``d(u) == w(u, v) + d(v)``, with distances from a reverse Dijkstra;
* a path's ECMP share is the product, over its hops, of
  ``1 / (DAG out-degree)``, and a class's arc loads are
  ``sum(demand * share)`` over every path through the arc;
* a pair's delay is the maximum over its paths (``"worst"``) or the
  share-weighted mean (``"mean"``) of the summed arc delays; a source
  that cannot reach its destination has delay ``inf``.

Besides the scenario's traffic variant (``variant.apply``), only the
closed forms ``arc_delays`` (Eq. 1), ``sla_outcome`` (Eq. 2) and
``fortz_cost`` come from ``src/``; ``test_delay.py`` and
``test_sla_fortz.py`` pin them against hand values.  Path enumeration
folds in another order than production, so values are compared within a
relative tolerance; SLA violation counts must match exactly.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PAPER_CONFIG, OptimizerConfig
from repro.core.delay import arc_delays
from repro.core.evaluation import DtrEvaluator, ScenarioEvaluation
from repro.core.fortz import fortz_cost
from repro.core.perturbation import random_pair_move
from repro.core.sla import sla_outcome
from repro.core.weights import WeightSetting
from repro.exp.common import make_instance
from repro.routing.network import Network
from repro.scenarios import NORMAL_SCENARIO, Scenario, build_scenarios
from repro.traffic.gravity import DtrTraffic

#: Relative tolerance between the oracle's and production's floats.
RTOL = 1e-9

#: Every scenario family the differential test sweeps: link, node,
#: SRLG and 2-link failures, traffic surges and SRLG x surge.
SCENARIO_SPEC = "link,node,srlg,multi2,surge,srlgxsurge"

#: Production modules the oracle must not import: the routing kernels
#: that every other parity test already shares.
ROUTING_KERNELS = frozenset(
    "spf fastpath vectorized loader engine incremental sweep".split()
)


@dataclass(frozen=True)
class OracleOutcome:
    """What the oracle predicts for one (setting, scenario)."""

    lam: float
    phi: float
    violations: int
    loads_delay: np.ndarray
    loads_tput: np.ndarray
    pair_delays: np.ndarray


def _route_class(
    network: Network,
    weights: np.ndarray,
    demands: np.ndarray,
    failed: frozenset[int],
) -> "tuple[np.ndarray, dict]":
    """One class routed by shortest-path enumeration.

    Returns the per-arc loads and, for every pair ``(s, t)`` with
    ``s != t`` whose destination carries demand, its shortest paths as
    ``(ecmp_share, arc_ids)`` (an empty list when ``s`` cannot reach
    ``t``).
    """
    graph = nx.DiGraph()
    graph.add_nodes_from(range(network.num_nodes))
    for arc in range(network.num_arcs):
        if arc not in failed:
            graph.add_edge(
                int(network.arc_src[arc]),
                int(network.arc_dst[arc]),
                weight=float(weights[arc]),
                arc=arc,
            )
    reverse = graph.reverse(copy=False)
    loads = np.zeros(network.num_arcs)
    paths: dict[tuple[int, int], list] = {}
    for t in np.flatnonzero(demands.sum(axis=0) > 0.0).tolist():
        dist = nx.single_source_dijkstra_path_length(reverse, t)
        out_degree = {
            u: sum(
                1
                for v, edge in graph[u].items()
                if v in dist and dist[u] == edge["weight"] + dist[v]
            )
            for u in dist
        }
        for s in range(network.num_nodes):
            if s == t:
                continue
            routes = []
            if s in dist:
                for nodes in nx.all_shortest_paths(
                    graph, s, t, weight="weight"
                ):
                    share = 1.0
                    arcs = []
                    for u, v in zip(nodes, nodes[1:]):
                        share /= out_degree[u]
                        arcs.append(graph[u][v]["arc"])
                    routes.append((share, arcs))
                    loads[arcs] += demands[s, t] * share
            paths[s, t] = routes
    return loads, paths


def _path_delay(arcs: list, delays: np.ndarray) -> float:
    """A path's delay, summed hop by hop from the destination back.

    The synthetic topologies scale their diameter to the SLA bound, so
    a low-load path can sum to exactly ``theta``; summing in the order
    delay accumulates towards the destination rounds such a tie the way
    production does, where any other order could flip the violation.
    """
    total = 0.0
    for arc in reversed(arcs):
        total = float(delays[arc]) + total
    return total


def _pair_delays(
    paths: dict, delays: np.ndarray, num_nodes: int, mode: str
) -> np.ndarray:
    """Per-pair path delay; ``nan`` where no pair was routed."""
    out = np.full((num_nodes, num_nodes), np.nan)
    for (s, t), routes in paths.items():
        if not routes:
            out[s, t] = np.inf
            continue
        totals = [
            (share, _path_delay(arcs, delays)) for share, arcs in routes
        ]
        if mode == "worst":
            out[s, t] = max(total for _, total in totals)
        else:
            out[s, t] = sum(share * total for share, total in totals)
    return out


def oracle(
    network: Network,
    traffic: DtrTraffic,
    config: OptimizerConfig,
    setting: WeightSetting,
    scenario: Scenario,
    mode: str,
) -> OracleOutcome:
    """The outcome of ``setting`` under ``scenario``, from definitions."""
    if scenario.variant is not None:
        traffic = scenario.variant.apply(traffic)
    failure = scenario.failure
    removed = list(failure.removed_nodes)
    demands = []
    for matrix in (traffic.delay, traffic.throughput):
        values = matrix.values.copy()
        values[removed, :] = 0.0
        values[:, removed] = 0.0
        demands.append(values)
    failed = frozenset(failure.failed_arcs)
    loads_d, paths_d = _route_class(
        network, setting.delay, demands[0], failed
    )
    loads_t, _ = _route_class(network, setting.tput, demands[1], failed)
    total = loads_d + loads_t
    delays = arc_delays(
        total, network.capacity, network.prop_delay, config.delay
    )
    pair_delays = _pair_delays(paths_d, delays, network.num_nodes, mode)
    sla = sla_outcome(pair_delays, demands[0], config.sla)
    phi = fortz_cost(total, network.capacity, include=loads_t > 0.0)
    return OracleOutcome(
        lam=sla.cost,
        phi=phi,
        violations=sla.violations,
        loads_delay=loads_d,
        loads_tput=loads_t,
        pair_delays=pair_delays,
    )


def assert_matches_oracle(
    evaluation: ScenarioEvaluation, expected: OracleOutcome, label: str
) -> None:
    """Violations exactly; costs, loads and pair delays within RTOL."""
    assert evaluation.sla.violations == expected.violations, label
    np.testing.assert_allclose(
        [evaluation.cost.lam, evaluation.cost.phi],
        [expected.lam, expected.phi],
        rtol=RTOL,
        err_msg=f"{label}: (Lambda, Phi)",
    )
    for name in ("loads_delay", "loads_tput", "pair_delays"):
        np.testing.assert_allclose(
            getattr(evaluation, name),
            getattr(expected, name),
            rtol=RTOL,
            err_msg=f"{label}: {name}",
        )


def test_oracle_imports_no_routing_kernel():
    """The oracle stays independent: it imports no routing kernel."""
    tree = ast.parse(Path(__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    kernels = {
        name
        for name in imported
        if name.split(".")[-1] in ROUTING_KERNELS
    }
    assert not kernels


def test_oracle_splits_ecmp_evenly_on_the_square(square_network):
    """A hand-checkable case: on the 4-node square (ring plus the 0-2
    diagonal, unit weights), 1 -> 3 has two equal-cost paths, via 0 and
    via 2, so each ring arc on them carries half the demand."""
    demands = np.zeros((4, 4))
    demands[1, 3] = 8.0
    loads, paths = _route_class(
        square_network,
        np.ones(square_network.num_arcs),
        demands,
        frozenset(),
    )
    arc = square_network.arc_id
    assert sorted(paths[1, 3]) == [
        (0.5, [arc(1, 0), arc(0, 3)]),
        (0.5, [arc(1, 2), arc(2, 3)]),
    ]
    expected = np.zeros(square_network.num_arcs)
    for u, v in ((1, 0), (0, 3), (1, 2), (2, 3)):
        expected[arc(u, v)] = 4.0
    np.testing.assert_array_equal(loads, expected)


@settings(max_examples=6, deadline=None)
@given(
    num_nodes=st.integers(6, 10),
    seed=st.integers(0, 2**16),
    mode=st.sampled_from(["worst", "mean"]),
)
def test_production_matches_oracle(num_nodes, seed, mode):
    """Sweeps, single-arc moves and their reverts agree with the oracle.

    The sweep runs through the default ``evaluate_scenarios``: the batch
    engine, the failed-arc shortcut and the incremental router.  A
    random accept/reject sequence of Phase-1 moves then drives the
    routers through ``evaluate_move``/``revert_move``, and every
    candidate plus the final ``evaluate_normal`` is checked as well.
    """
    instance = make_instance("rand", num_nodes, 3.5, seed)
    network, traffic = instance.network, instance.traffic
    config = PAPER_CONFIG
    rng = np.random.default_rng(seed)
    setting = WeightSetting.random(network.num_arcs, config.weights, rng)
    evaluator = DtrEvaluator(network, traffic, config, delay_mode=mode)

    def check(evaluation, scenario, label):
        expected = oracle(network, traffic, config, setting, scenario, mode)
        assert_matches_oracle(evaluation, expected, label)

    scenarios = build_scenarios(SCENARIO_SPEC, network, seed)
    swept = evaluator.evaluate_scenarios(setting, scenarios)
    assert len(swept) == len(scenarios)
    for scenario, evaluation in zip(scenarios, swept.evaluations):
        check(evaluation, scenario, scenario.label)

    base = evaluator.evaluate_normal(setting)
    for step in range(8):
        arc = int(rng.integers(network.num_arcs))
        move = random_pair_move(setting, arc, config.weights, rng)
        move.apply(setting)
        candidate = evaluator.evaluate_move(setting, move, reuse=base)
        check(candidate, NORMAL_SCENARIO, f"move {step} on arc {arc}")
        if rng.random() < 0.3:
            base = candidate
        else:
            move.revert(setting)
            evaluator.revert_move(setting, move)
    check(evaluator.evaluate_normal(setting), NORMAL_SCENARIO, "final")


@settings(max_examples=6, deadline=None)
@given(
    num_nodes=st.integers(6, 10),
    seed=st.integers(0, 2**16),
    mode=st.sampled_from(["worst", "mean"]),
)
def test_trials_match_oracle(num_nodes, seed, mode):
    """The accept/reject move sequence above, through the trial seam.

    Every candidate a trial evaluates and the final ``evaluate_normal``
    after its commits and rollbacks agree with the oracle.
    """
    instance = make_instance("rand", num_nodes, 3.5, seed)
    network, traffic = instance.network, instance.traffic
    config = PAPER_CONFIG
    rng = np.random.default_rng(seed)
    setting = WeightSetting.random(network.num_arcs, config.weights, rng)
    evaluator = DtrEvaluator(network, traffic, config, delay_mode=mode)

    def check(evaluation, label):
        expected = oracle(
            network, traffic, config, setting, NORMAL_SCENARIO, mode
        )
        assert_matches_oracle(evaluation, expected, label)

    base = evaluator.evaluate_normal(setting)
    for step in range(8):
        arc = int(rng.integers(network.num_arcs))
        move = random_pair_move(setting, arc, config.weights, rng)
        trial = evaluator.trial(setting, move, reuse=base)
        check(trial.evaluation, f"move {step} on arc {arc}")
        if rng.random() < 0.3:
            trial.commit()
            base = trial.evaluation
        else:
            trial.rollback()
    check(evaluator.evaluate_normal(setting), "final")
