"""Scenario-axis batch sweep engine: many scenarios per kernel call.

The vector kernels of :mod:`repro.routing.vectorized` batch along the
*destination* axis: one scenario's affected destinations share a
schedule and a level sweep.  A per-scenario sweep therefore pays one
structure pass, one schedule build and one kernel invocation *per
scenario*, plus Python work per (scenario, destination) cell.  This
module adds the missing axis: the (node, destination) cells of the
kernels are blind to which scenario a column belongs to, so a whole
*scenario group* is held as a few arrays per traffic class and its
outstanding propagations run through a single kernel call.  Per column
the arithmetic is untouched — every contribution row is bit-identical
to the per-scenario path (which is itself pinned bit-identical to the
pure-Python kernels), and per-scenario totals are still folded in
ascending destination order — so batching is purely an execution
decision.

Three pieces live here:

* :func:`plan_sweep` — groups a scenario collection by *structural
  footprint*: plain arc-failure scenarios (whose footprint is the
  failed-arc signature against the base DAG masks) form batchable
  groups bounded by a state budget, scenarios sharing a traffic variant
  digest group per variant (their structural half is identical per
  failure, and the whole group evaluates through one sibling-evaluator
  batch), and everything else (node removals, the normal scenario)
  stays on the exact legacy per-scenario path.  Exact duplicates inside
  a batch group — cross products revisit the same failure once per
  variant — collapse onto one evaluation slot.
* :func:`route_scenario_batch` — the scenario-axis counterpart of
  :meth:`~repro.routing.incremental.IncrementalRouter.route_scenario`:
  the group's distances ``(S, N, N)``, mask rows ``(S, D, A)`` and hit
  cells ``(S, D)`` as arrays from the router's one structure rule
  (which ``route_scenario`` runs as a group of one; on instances of at
  most :data:`~repro.routing.backend.CLOSURE_MAX_NODES` nodes a group
  takes its new distance columns from one batched min-plus closure
  instead of a cone repair per cell), the hit cells' load
  contributions through the router's load driver (chunked by a kernel
  budget), one ascending-destination fold into an ``(S, A)``
  accumulator.
* :func:`flush_delay_batch` — the group's outstanding path-delay DPs
  through the engine's delay driver, replaying the load batches'
  schedules where they apply.

The structure rule and both drivers are the ones the per-scenario path
runs (:meth:`repro.routing.incremental.IncrementalRouter.
_group_structure`, :func:`repro.routing.incremental._load_columns`,
:func:`repro.routing.engine._delay_columns`), with the same
python-vs-vector rule; what differs is that the load driver runs in
chunks over the whole group and that no memo wraps the drivers here.
The propagation memo, the engine's delay memo and the evaluator's
routing cache serve the move and per-scenario paths, where local search
revisits states; a batch sweep prices each setting once, so its cells
never recur (on the costs-only audit workload, 0 of ~90k propagation
lookups and 0 of ~105k delay probes hit).  ``tests/routing/test_sweep.py``
pins the bit-identity property-style; the evaluator-level parity across
scenario families is pinned by ``tests/core/test_sweep_evaluator.py``.

Fan-out sweeps reuse this planner: sweep hosts receive only index
tickets and batch their slice locally (see :mod:`repro.core.parallel`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.routing.engine import (
    BatchHandoff,
    ClassRouting,
    _delay_columns,
    kernel_cell_budget,
)
from repro.routing.failures import FailureScenario
from repro.routing.incremental import (
    CLOSURE_STACK_BYTES,
    IncrementalRouter,
    ScenarioRouting,
    _load_columns,
)
from repro.routing.vectorized import BatchSchedule

#: Upper bound on the bytes one batch group holds while it is in flight
#: (see :func:`group_scenario_budget` for what counts).  64 MB.
SWEEP_STATE_BUDGET = 64_000_000


#: Chaos-testing hook: set by :func:`repro.core.faults.install_fault_plan`
#: to its ``fault_point`` callable when a fault plan is active in this
#: process (workers of a chaos run), ``None`` everywhere else.  A plain
#: module global keeps the hot-path cost at one ``is None`` check and
#: avoids a routing -> core import.
_FAULT_HOOK = None


def set_fault_hook(hook) -> None:
    """Install (or clear, with None) the stage fault-injection hook."""
    global _FAULT_HOOK
    _FAULT_HOOK = hook


def _maybe_fault(stage: str) -> None:
    if _FAULT_HOOK is not None:
        _FAULT_HOOK(stage)


def group_scenario_budget(num_nodes: int, num_arcs: int) -> int:
    """Scenarios per batch group, bounded by :data:`SWEEP_STATE_BUDGET`.

    Counts every per-scenario array a group holds, with ``N`` nodes,
    ``A`` arcs and ``D <= N`` destinations.  Per traffic class the
    routing holds its distance matrix (``8·N²`` bytes), mask rows
    (``D·A``), hit flags (``D``) and loads (``8·A``).  The delay stage
    adds the path-delay matrix (``8·N²``), stacked copies of the delay
    class's distances and masks (``8·N² + D·A``) and four arc vectors
    (``32·A``: both classes' loads, total loads, arc delays).  So, with
    ``D = N``::

        bytes per scenario = 32·N² + 3·N·A + 2·N + 48·A

    The group size shrinks roughly quadratically with instance size;
    small instances batch whole sweeps at once.  The hit cells'
    contribution rows are bounded per kernel call by
    :func:`kernel_cell_budget` instead: each call's scenarios fold as
    soon as it returns.  The min-plus closure that repairs a small
    instance's distances (:func:`~repro.routing.incremental.
    _closure_columns`) works through the group in chunks of two
    :data:`~repro.routing.incremental.CLOSURE_STACK_BYTES` stacks,
    whatever the group's size, so the budget sets those bytes aside
    first.
    """
    per_scenario = (
        32 * num_nodes * num_nodes
        + 3 * num_nodes * num_arcs
        + 2 * num_nodes
        + 48 * num_arcs
    )
    state = SWEEP_STATE_BUDGET - 2 * CLOSURE_STACK_BYTES
    return max(1, state // max(1, per_scenario))


@dataclass(frozen=True)
class SweepPlan:
    """How one scenario collection is partitioned for batch evaluation.

    Indices refer to positions in the planned collection; every index
    appears in exactly one bucket, so results reassemble by position.

    Attributes:
        batch_groups: budget-bounded groups of plain arc-failure
            scenario indices (no removed nodes, no traffic variant, not
            normal) — the scenario-axis batch core's bucket.
        variant_groups: ``(digest, indices)`` per distinct traffic
            variant, in first-appearance order; one sibling-evaluator
            batch each.
        legacy: indices evaluated on the exact per-scenario path
            (normal scenarios, node removals).
    """

    batch_groups: tuple[tuple[int, ...], ...]
    variant_groups: tuple[tuple[str, tuple[int, ...]], ...]
    legacy: tuple[int, ...]

    @property
    def num_scenarios(self) -> int:
        return (
            sum(len(g) for g in self.batch_groups)
            + sum(len(ids) for _, ids in self.variant_groups)
            + len(self.legacy)
        )


def plan_sweep(items: "list", num_nodes: int, num_arcs: int) -> SweepPlan:
    """Partition scenarios into batch / variant / legacy buckets.

    Args:
        items: :class:`~repro.scenarios.Scenario` or
            :class:`FailureScenario` objects, in sweep order.
        num_nodes: instance size (with ``num_arcs``, drives the group
            budget).
        num_arcs: arc count of the instance.
    """
    batchable: list[int] = []
    variant_groups: dict[str, list[int]] = {}
    legacy: list[int] = []
    for idx, item in enumerate(items):
        variant = getattr(item, "variant", None)
        if variant is not None:
            variant_groups.setdefault(variant.digest, []).append(idx)
            continue
        failure = getattr(item, "failure", item)
        if (
            failure.is_normal
            or failure.removed_nodes
            or not failure.failed_arcs
        ):
            legacy.append(idx)
        else:
            batchable.append(idx)
    budget = group_scenario_budget(num_nodes, num_arcs)
    groups = tuple(
        tuple(batchable[i: i + budget])
        for i in range(0, len(batchable), budget)
    )
    return SweepPlan(
        batch_groups=groups,
        variant_groups=tuple(
            (digest, tuple(ids)) for digest, ids in variant_groups.items()
        ),
        legacy=tuple(legacy),
    )


def route_scenario_batch(
    router: IncrementalRouter,
    scenarios: "list[FailureScenario]",
) -> "tuple[list[ScenarioRouting], list[BatchHandoff]]":
    """Route one class under a group of arc failures, held as arrays.

    The scenario-axis counterpart of :meth:`IncrementalRouter.
    route_scenario`, bit-identical per scenario: both take their
    distances, masks and hit cells from the router's one structure rule
    (:meth:`IncrementalRouter._group_structure`), here for the whole
    group at once.  The hit cells' mask rows, distance columns and
    demand columns are gathered by fancy indexing into chunked calls of
    the load driver (:func:`~repro.routing.incremental._load_columns`,
    the one the per-scenario path runs) — a column's result does not
    depend on which columns share a call — and every scenario's loads
    fold in ascending destination order, one vector add per destination
    into an ``(S, A)`` accumulator.  The propagation memo is neither
    probed nor filled: a batch sweep prices each setting once, so the
    memo serves the move and per-scenario paths only.

    Takes failures without removed nodes (:func:`plan_sweep` batches
    plain arc failures): every scenario keeps the router's demands.
    Returns the per-scenario routings, whose arrays are views into the
    group's, plus the vector load batches' schedules (as
    :class:`BatchHandoff` objects), which :func:`flush_delay_batch`
    replays for the path-delay DPs of the same columns.

    Raises:
        ValueError: for a node-removing scenario; those change the
            demand matrix and take :meth:`IncrementalRouter.
            route_scenario`.
    """
    _maybe_fault("route_batch")
    if not scenarios:
        return [], []
    if any(scenario.removed_nodes for scenario in scenarios):
        raise ValueError("scenario groups take no node removals")
    group = router._group_structure(scenarios)
    dest = router.destinations
    hit = group.hit
    num_scen = hit.shape[0]
    num_arcs = router.network.num_arcs
    recomputed = int(np.count_nonzero(hit))
    router.stats.scenario_routes += num_scen
    router.stats.destinations_recomputed += recomputed
    router.stats.destinations_reused += num_scen * dest.size - recomputed
    demands = router._demands
    loads = np.zeros((num_scen, num_arcs))
    undelivered = np.zeros(num_scen)
    handoffs: "list[BatchHandoff]" = []
    budget = kernel_cell_budget(num_arcs)
    # Kernel calls take whole scenarios, so each call's scenarios fold
    # as soon as it returns: at most ``budget`` cells per call, unless
    # one scenario alone has more.
    ends = np.cumsum(np.count_nonzero(hit, axis=1))
    lo = 0
    while lo < num_scen:
        start = int(ends[lo - 1]) if lo else 0
        hi = max(
            lo + 1,
            int(np.searchsorted(ends, start + budget, side="right")),
        )
        block = hit[lo:hi]
        rows, pos = np.nonzero(block)
        contribs = und = None
        if rows.size:
            cells = rows + lo
            ts = dest[pos]
            contribs, und, schedule = _load_columns(
                router,
                ts,
                group.masks[cells, pos],
                group.dist[cells, :, ts].T,
                demands,
            )
            if schedule is not None:
                handoffs.append(
                    BatchHandoff(
                        cells=tuple(zip(cells.tolist(), ts.tolist())),
                        schedule=schedule,
                    )
                )
        _fold_loads(
            router, block, rows, pos, contribs, und,
            loads[lo:hi], undelivered[lo:hi],
        )
        lo = hi

    routings = []
    for s, scenario in enumerate(scenarios):
        routing = ClassRouting(
            network=router.network,
            scenario=scenario,
            dist=group.dist[s],
            destinations=dest,
            masks=group.masks[s],
            loads=loads[s],
            demands=demands,
            undelivered=float(undelivered[s]),
        )
        routings.append(ScenarioRouting(routing=routing))
    return routings, handoffs


def _fold_loads(
    router: IncrementalRouter,
    hit: np.ndarray,
    rows: np.ndarray,
    pos: np.ndarray,
    contribs: "np.ndarray | None",
    und: "np.ndarray | None",
    loads: np.ndarray,
    undelivered: np.ndarray,
) -> None:
    """Fold a block of scenarios into its ``loads`` and ``undelivered``.

    ``hit`` is the block's ``(B, D)`` hit flags, and row ``i`` of
    ``contribs`` / ``und`` is the recomputed cell ``(rows[i], pos[i])``;
    every other cell takes the router's base contribution.  Destinations
    fold in ascending order — ``route_class``'s float summation order —
    so every scenario's totals are bit-identical to the per-scenario
    fold.
    """
    cell = np.zeros(hit.shape, dtype=np.intp)
    cell[rows, pos] = np.arange(rows.size)
    base_contribs, base_und = router._contribs, router._und
    for d, any_hit in enumerate(hit.any(axis=0).tolist()):
        if any_hit:
            col = hit[:, d]
            loads += np.where(
                col[:, None], contribs[cell[:, d]], base_contribs[d]
            )
            undelivered += np.where(col, und[cell[:, d]], base_und[d])
        else:
            loads += base_contribs[d]
            undelivered += base_und[d]


def flush_delay_batch(
    engine,
    mode: str,
    destinations: np.ndarray,
    masks: np.ndarray,
    dist: np.ndarray,
    arc_delays: np.ndarray,
    pending: np.ndarray,
    out: np.ndarray,
    shared: "list[tuple[np.ndarray, np.ndarray, BatchSchedule]]" = (),
) -> None:
    """Run the pending path-delay DPs of a group's ``K`` delay tasks.

    The batch sweep's face of the engine's one delay driver
    (:func:`~repro.routing.engine._delay_columns`, which documents the
    arguments): ``shared`` carries the load batches'
    :class:`BatchHandoff` schedules resolved to task rows, and the other
    pending cells run through the python kernel or chunked vector DPs by
    the same rule as :meth:`~repro.routing.engine.RoutingEngine.
    path_delays`.  Every column reads its own task's arc-delay row, so
    it is bit-identical to a per-scenario ``path_delays`` call.  No memo
    is probed or filled: a batch sweep prices each setting once.
    """
    _maybe_fault("delay_flush")
    _delay_columns(
        engine, mode, destinations, masks, dist, arc_delays, pending, out,
        shared,
    )
