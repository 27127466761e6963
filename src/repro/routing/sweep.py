"""Scenario-axis batch sweep engine: many scenarios per kernel call.

The vector kernels of :mod:`repro.routing.vectorized` batch along the
*destination* axis: one scenario's affected destinations share a
schedule and a level sweep.  On warm incremental sweeps each scenario
touches only a handful of destinations, so a sweep still pays one
schedule build and one kernel invocation *per scenario* — pure Python
overhead that dominates once the per-destination work is memoized.  This
module adds the missing axis: the (node, destination) cells of the
kernels are blind to which scenario a column belongs to, so the
outstanding propagations of a whole *scenario group* stack into one
``(cells, arcs)`` batch and run through a single kernel call.  Per
column the arithmetic is untouched — every contribution row is
bit-identical to the per-scenario path (which is itself pinned
bit-identical to the pure-Python kernels), and per-scenario totals are
still folded in ascending destination order — so batching is purely an
execution decision.

Two pieces live here:

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
  one structure pass per scenario (distances, masks, memo probes), one
  concatenated ``batch_propagate_loads`` call for every outstanding
  (scenario, destination) cell, one ascending-destination fold per
  scenario.  ``tests/routing/test_sweep.py`` pins the bit-identity
  property-style; the evaluator-level parity across scenario families
  is pinned by ``tests/core/test_sweep_evaluator.py``.

Parallel and distributed sweeps reuse this planner: worker processes
and sweep hosts receive only index tickets and batch their slice
locally (see :mod:`repro.core.parallel`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.routing.engine import _PY_DELAY_BATCH_MAX, _batch_delay_kernel
from repro.routing.failures import FailureScenario
from repro.routing.fastpath import (
    fast_propagate_mean_delay,
    fast_propagate_worst_delay,
)
from repro.routing.incremental import IncrementalRouter, ScenarioRouting
from repro.routing.vectorized import (
    BatchSchedule,
    batch_propagate_loads,
    build_schedule,
)

#: Upper bound on the floats held by one batch group's scenario
#: structures (each scenario holds a full (N, N) distance matrix per
#: class while its group is in flight).  ~64 MB per class at float64.
SWEEP_STATE_BUDGET = 8_000_000

#: Upper bound on ``cells x num_arcs`` of one load-propagation kernel
#: call (the contribution matrix it materializes).  ~48 MB at float64.
SWEEP_KERNEL_BUDGET = 6_000_000


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


def group_scenario_budget(num_nodes: int) -> int:
    """Scenarios per batch group, bounded by the structure-state budget.

    Each in-flight scenario pins two ``(N, N)`` float matrices (one per
    traffic class), so the group size shrinks quadratically with
    instance size; small instances batch whole sweeps at once.
    """
    per_scenario = max(1, 2 * num_nodes * num_nodes)
    return max(1, SWEEP_STATE_BUDGET // per_scenario)


def kernel_cell_budget(num_arcs: int) -> int:
    """Columns per load-kernel call, bounded by the contribution matrix."""
    return max(64, SWEEP_KERNEL_BUDGET // max(1, num_arcs))


@dataclass(frozen=True)
class BatchHandoff:
    """One load-propagation batch's schedule, handed to the delay DP.

    The scenario-axis counterpart of the per-scenario path's
    ``_subset_schedule`` handoff: a schedule depends only on the
    ``(mask row, distance column)`` pairs of its columns, and those are
    identical between a scenario's load propagation and its path-delay
    DP, so the delay flush replays the loads schedule instead of
    rebuilding one.

    Attributes:
        cells: ``(scenario index, destination)`` per schedule column,
            aligned with the schedule's column order.
        schedule: the prebuilt schedule.
    """

    cells: tuple[tuple[int, int], ...]
    schedule: BatchSchedule


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


def plan_sweep(items: "list", num_nodes: int) -> SweepPlan:
    """Partition scenarios into batch / variant / legacy buckets.

    Args:
        items: :class:`~repro.scenarios.Scenario` or
            :class:`FailureScenario` objects, in sweep order.
        num_nodes: instance size (drives the group budget).
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
    budget = group_scenario_budget(num_nodes)
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
    want_reusable: bool = False,
) -> "tuple[list[ScenarioRouting], list[BatchHandoff]]":
    """Route one class under many scenarios with batched propagation.

    The scenario-axis counterpart of :meth:`IncrementalRouter.
    route_scenario`, bit-identical per scenario: structures (distances,
    masks, memo probes) are built per scenario exactly as the
    per-scenario path does, but every outstanding (scenario,
    destination) load propagation across the whole batch runs through
    one concatenated ``batch_propagate_loads`` call — the kernel's
    per-column results do not depend on which columns share the batch —
    and lands in the propagation memo under the same keys.  Per-scenario
    totals fold in ascending destination order as always.

    Returns the per-scenario routings plus the batch schedules built
    along the way (as :class:`BatchHandoff` objects keyed by scenario
    index), which :func:`flush_delay_batch` replays for the path-delay
    DPs of the same columns.
    """
    _maybe_fault("route_batch")
    structs = [router._scenario_structure(s) for s in scenarios]
    computed: "list[dict[int, tuple[np.ndarray, float]]]" = [
        {} for _ in structs
    ]
    pending: list[tuple[int, int, int]] = []  # (struct index, pos, t)
    memo = router._memo
    for i, struct in enumerate(structs):
        dem_list = struct.dem_list
        for pos in struct.need:
            t = int(struct.dest_s[pos])
            if dem_list is not None and dem_list[pos]:
                # Changed demand column (node removals): not memoizable;
                # mirrors the per-scenario path.
                computed[i][pos] = router._propagate_for(
                    t,
                    struct.masks[pos],
                    struct.dist[:, t],
                    struct.demands[:, t],
                    False,
                )
                continue
            entry = memo.get(t, struct.masks[pos], struct.dist[:, t])
            if entry is not None:
                computed[i][pos] = entry
            else:
                pending.append((i, pos, t))

    num_arcs = router.network.num_arcs
    budget = kernel_cell_budget(num_arcs)
    handoffs: "list[BatchHandoff]" = []
    for lo in range(0, len(pending), budget):
        chunk = pending[lo: lo + budget]
        masks = np.stack(
            [structs[i].masks[pos] for i, pos, _ in chunk]
        )
        dist_cols = np.stack(
            [structs[i].dist[:, t] for i, _, t in chunk], axis=1
        )
        demand_cols = np.stack(
            [structs[i].demands[:, t] for i, _, t in chunk], axis=1
        )
        dests = np.asarray([t for _, _, t in chunk], dtype=np.intp)
        schedule = build_schedule(router._batch_plan, masks, dist_cols)
        contribs, und = batch_propagate_loads(
            router._batch_plan,
            masks,
            dist_cols,
            demand_cols,
            dests,
            schedule=schedule,
        )
        handoffs.append(
            BatchHandoff(
                cells=tuple((i, t) for i, _, t in chunk),
                schedule=schedule,
            )
        )
        for j, (i, pos, t) in enumerate(chunk):
            contrib = contribs[j].copy()
            und_value = float(und[j])
            memo.put(
                t,
                structs[i].masks[pos],
                structs[i].dist[:, t],
                contrib,
                und_value,
            )
            computed[i][pos] = contrib, und_value

    routings = [
        router._assemble_scenario(struct, computed[i], None, want_reusable)
        for i, struct in enumerate(structs)
    ]
    return routings, handoffs


def flush_delay_batch(
    engine,
    mode: str,
    tasks: "list[tuple]",
    shared: "list[tuple[np.ndarray, np.ndarray, BatchSchedule]]" = (),
) -> None:
    """Run the pending path-delay columns of many scenarios in one DP.

    Args:
        engine: the :class:`~repro.routing.engine.RoutingEngine`.
        mode: ``"worst"`` or ``"mean"``.
        tasks: ``(routing, arc_delays, out, pending)`` per scenario —
            the output of the engine's reuse/memo pre-pass
            (:meth:`RoutingEngine._delay_pending`); ``pending`` lists
            ``(row, t, memo key)`` triples still needing propagation.
        shared: prebuilt ``(column task indices, column destinations,
            schedule)`` triples from the load-propagation batches
            (:class:`BatchHandoff` resolved to task indices by the
            caller).  A schedule depends only on its columns' (mask,
            distance) pairs — identical between a scenario's load
            propagation and its delay DP — so covered pending columns
            replay these schedules instead of paying a fresh build;
            recomputing a covered column that was individually
            reusable replays the identical bits, exactly like the
            per-scenario handed-subset reuse.

    Pending columns not covered by a shared schedule are concatenated,
    share one schedule build, and read their own scenario's arc-delay
    vector via the kernels' ``delay_rows`` hook, so every column is
    bit-identical to a per-scenario ``path_delays`` call; results land
    in ``out`` in place (diagonal re-NaN'd) and in the engine's delay
    memo under the per-scenario keys.
    """
    _maybe_fault("delay_flush")
    if not any(pending for _, _, _, pending in tasks):
        return
    delays_2d = np.stack([arc_delays for _, arc_delays, _, _ in tasks])
    #: Outstanding (task, destination) -> memo key; cells leave the map
    #: as soon as a shared schedule serves them.
    remaining: "dict[tuple[int, int], tuple | None]" = {
        (i, t): key
        for i, (_, _, _, pending) in enumerate(tasks)
        for _, t, key in pending
    }
    batch_propagate = _batch_delay_kernel(mode)

    def write(i: int, t: int, key: "tuple | None", column: np.ndarray) -> None:
        out = tasks[i][2]
        out[:, t] = column
        out[t, t] = np.nan
        if key is not None:
            engine._memo_put(key, out[:, t].copy())

    for task_rows, dests, schedule in shared:
        if not remaining:
            break
        served = [
            j
            for j in range(len(dests))
            if (int(task_rows[j]), int(dests[j])) in remaining
        ]
        # Replay only when it harvests enough of the schedule's columns
        # — the DP computes every column, so a near-fully-memoized
        # sweep would pay O(cells x arcs) to harvest a handful (the
        # batch counterpart of path_delays' covered-fraction guard);
        # unserved cells fall through to the right-sized path below.
        if not served or 2 * len(served) < len(dests):
            continue
        columns = batch_propagate(
            engine._batch_plan,
            None,
            None,
            delays_2d,
            dests,
            schedule=schedule,
            delay_rows=task_rows,
        )
        for j in served:
            i, t = int(task_rows[j]), int(dests[j])
            write(i, t, remaining.pop((i, t)), columns[:, j])

    if not remaining:
        return
    cells = [
        (i, row, t, key)
        for i, (_, _, _, pending) in enumerate(tasks)
        for row, t, key in pending
        if (i, t) in remaining
    ]
    if len(cells) <= _PY_DELAY_BATCH_MAX:
        # Leftovers too few to amortize a schedule build: the
        # per-destination python kernel is cheaper (and bit-identical),
        # mirroring path_delays' small-batch fallback.
        propagate = (
            fast_propagate_mean_delay
            if mode == "mean"
            else fast_propagate_worst_delay
        )
        delay_lists: "dict[int, list[float]]" = {}
        for i, row, t, key in cells:
            delays = delay_lists.get(i)
            if delays is None:
                delays = delay_lists[i] = tasks[i][1].tolist()
            column = propagate(
                engine.plan,
                tasks[i][0].masks[row],
                tasks[i][0].dist[:, t],
                delays,
                t,
            )
            write(i, t, key, np.asarray(column))
        return
    num_arcs = engine.network.num_arcs
    budget = kernel_cell_budget(num_arcs)
    for lo in range(0, len(cells), budget):
        chunk = cells[lo: lo + budget]
        masks = np.stack(
            [tasks[i][0].masks[row] for i, row, _, _ in chunk]
        )
        dist_cols = np.stack(
            [tasks[i][0].dist[:, t] for i, _, t, _ in chunk], axis=1
        )
        dests = np.asarray([t for _, _, t, _ in chunk], dtype=np.intp)
        delay_rows = np.asarray([i for i, _, _, _ in chunk], dtype=np.intp)
        columns = batch_propagate(
            engine._batch_plan,
            masks,
            dist_cols,
            delays_2d,
            dests,
            delay_rows=delay_rows,
        )
        for j, (i, _, t, key) in enumerate(chunk):
            write(i, t, key, columns[:, j])
