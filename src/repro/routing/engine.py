"""The routing engine: one-call evaluation of a weighted topology.

:class:`RoutingEngine` turns (weights, demands, failure scenario) into
per-arc loads and per-pair path delays.  It is the substrate every other
subsystem builds on: the cost model consumes its loads, the optimizer
calls it once per candidate weight setting per scenario.

Internally the engine computes distances with scipy's C Dijkstra, derives
all shortest-path DAG masks in one vectorized operation, and runs the
per-destination propagations through the pure-Python kernels of
:mod:`repro.routing.fastpath` (the numpy reference implementations live in
:mod:`repro.routing.loader` and are pinned equal by tests).

Path delays over existing routings have one driver for every caller:
:func:`_delay_columns` runs a stack of pending ``(task, destination)``
cells, replaying load-propagation schedules handed over as
:class:`BatchHandoff` objects and choosing the python or vector kernel
for the rest by :func:`_vector_columns`.  :meth:`RoutingEngine.
path_delays` wraps it in the NORMAL-column reuse rule
(:meth:`PathDelayReuse.fill`) and the delay memo; the batch sweep's
:func:`repro.routing.sweep.flush_delay_batch` calls it bare.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from repro.routing.backend import resolve_backend, validate_backend
from repro.routing.failures import NORMAL, FailureScenario, disabled_arc_mask
from repro.routing.fastpath import (
    PropagationPlan,
    destination_mask_rows,
    fast_propagate_loads,
    fast_propagate_mean_delay,
    fast_propagate_worst_delay,
)
from repro.routing.loader import max_arc_value_on_paths
from repro.routing.network import Network
from repro.routing.spf import _validate_weights, distance_columns
from repro.routing.vectorized import (
    BatchPlan,
    BatchSchedule,
    batch_propagate_mean_delay,
    batch_propagate_worst_delay,
    batch_total_loads,
)

#: Upper bound on ``cells x num_arcs`` of one batch-kernel call (the
#: ``(cells, A)`` contribution matrix a load call materializes).  ~48 MB
#: at float64.
SWEEP_KERNEL_BUDGET = 6_000_000


def kernel_cell_budget(num_arcs: int) -> int:
    """Columns per batch-kernel call, bounded by the contribution matrix."""
    return max(64, SWEEP_KERNEL_BUDGET // max(1, num_arcs))


def _vector_columns(backend: str, network: Network, columns: int) -> bool:
    """Whether ``columns`` propagation-only kernel columns run vectorized.

    The one python-vs-vector rule for work over existing masks and
    distances — load contributions (:func:`repro.routing.incremental.
    _load_columns`) and path-delay DPs (:func:`_delay_columns`) alike:
    the configured backend resolved at the propagation crossover.  The
    kernels are bit-identical, so the rule only decides speed.
    """
    return (
        resolve_backend(
            backend,
            network.num_nodes,
            network.num_arcs,
            columns,
            kind="propagate",
        )
        == "vector"
    )


@dataclass(frozen=True)
class ClassRouting:
    """Shortest-path routing of one traffic class under one scenario.

    Attributes:
        network: the topology routed over.  This back-reference is for
            convenience only — no consumer of a routing needs it to
            interpret the arrays — and it is *dropped on pickling* so a
            routing serializes as a few small arrays instead of dragging
            the whole topology across process boundaries (the parallel
            evaluator ships routings to worker processes).  Use
            :meth:`bind` to re-attach a network after unpickling.
        scenario: the failure scenario in force.
        dist: ``(N, N)`` distance matrix under the class weights; only
            the demand-carrying ``destinations`` columns are computed
            (no consumer reads any other column), the rest are ``inf``.
        destinations: destination ids that carry demand, ascending.
        masks: ``(len(destinations), num_arcs)`` boolean DAG-membership
            rows, aligned with ``destinations``.
        loads: per-arc load contributed by this class.
        demands: the ``(N, N)`` demand matrix actually routed (node
            failures zero out rows/columns of removed nodes).
        undelivered: demand volume lost to disconnection.
    """

    network: Network | None
    scenario: FailureScenario
    dist: np.ndarray
    destinations: np.ndarray
    masks: np.ndarray
    loads: np.ndarray
    demands: np.ndarray
    undelivered: float

    def __getstate__(self) -> dict[str, object]:
        state = dict(self.__dict__)
        state["network"] = None
        return state

    def bind(self, network: Network) -> "ClassRouting":
        """A copy with the network back-reference re-attached."""
        return replace(self, network=network)

    def used_arcs(self) -> np.ndarray:
        """Arcs lying on any demand-carrying shortest-path DAG.

        Computed once and cached — failure sweeps consult the same
        routing's used-arc set for every scenario.
        """
        cached = self.__dict__.get("_used_arcs")
        if cached is None:
            if self.masks.shape[0] == 0:
                cached = np.zeros(self.masks.shape[1], dtype=bool)
            else:
                cached = self.masks.any(axis=0)
            object.__setattr__(self, "_used_arcs", cached)
        return cached

    def mask_for(self, t: int) -> np.ndarray:
        """The shortest-DAG arc mask towards destination ``t``."""
        idx = int(np.searchsorted(self.destinations, t))
        if idx >= len(self.destinations) or self.destinations[idx] != t:
            raise KeyError(f"destination {t} carries no demand")
        return self.masks[idx]


@dataclass(frozen=True)
class BatchHandoff:
    """One load-propagation batch's schedule, handed to the delay DP.

    A schedule depends only on the ``(mask row, distance column)`` pairs
    of its columns, and those are identical between a scenario's load
    propagation and its path-delay DP, so the delay driver replays the
    loads schedule instead of rebuilding one.  The only schedule
    hand-off there is: the per-scenario path passes it from
    :meth:`~repro.routing.incremental.IncrementalRouter.route_scenario`
    to :meth:`RoutingEngine.path_delays`, the batch sweep from
    :func:`~repro.routing.sweep.route_scenario_batch` to
    :func:`~repro.routing.sweep.flush_delay_batch`.

    Attributes:
        cells: ``(scenario index, destination)`` per schedule column,
            aligned with the schedule's column order (the index is 0 on
            the per-scenario path).
        schedule: the prebuilt schedule.
    """

    cells: tuple[tuple[int, int], ...]
    schedule: BatchSchedule


@dataclass(frozen=True)
class PathDelayReuse:
    """A NORMAL evaluation's delay-class columns, reusable cell by cell.

    A path-delay column is a pure function of its destination, mask row
    and the delays of the masked arcs: the distance column only orders
    the DP, and any topological order yields the same bits (max is
    order-invariant, the mean accumulates in fixed arc order).  So every
    cell whose mask row equals the NORMAL routing's and whose masked arcs
    kept their NORMAL delays takes the NORMAL column verbatim — the one
    reuse rule of the per-scenario, move and batch paths (:meth:`fill`).

    Attributes:
        pair_delays: the NORMAL ``(N, N)`` path-delay matrix.
        arc_delays: the per-arc delays it was computed from.
        destinations: the NORMAL delay routing's destinations, ascending.
        masks: its DAG mask rows, aligned with ``destinations``.
    """

    pair_delays: np.ndarray
    arc_delays: np.ndarray
    destinations: np.ndarray
    masks: np.ndarray

    def fill(
        self,
        destinations: np.ndarray,
        masks: np.ndarray,
        arc_delays: np.ndarray,
        out: np.ndarray,
    ) -> np.ndarray:
        """Copy the reusable NORMAL columns of ``K`` tasks into ``out``.

        Args:
            destinations: the ``D`` destinations of every task, ascending
                (a subset of the NORMAL ones after node removals: rows
                are aligned by destination).
            masks: ``(K, D, A)`` delay-class mask rows per task.
            arc_delays: ``(K, A)`` arc delays per task.
            out: ``(K, N, N)`` path-delay matrices, written in place.

        Returns:
            The ``(K, D)`` cells that still need their DP.
        """
        if len(destinations) == len(self.destinations) and bool(
            (destinations == self.destinations).all()
        ):
            base, unknown = self.masks, None
        elif len(self.destinations):
            pos = np.minimum(
                np.searchsorted(self.destinations, destinations),
                len(self.destinations) - 1,
            )
            base = self.masks[pos]
            unknown = self.destinations[pos] != destinations
        else:
            return np.ones(masks.shape[:2], dtype=bool)
        # A cell is pending when its mask row differs from the NORMAL
        # one or, being equal, masks an arc whose delay changed.
        changed = arc_delays != self.arc_delays
        stale = masks != base
        stale |= masks & changed[:, None, :]
        pending = stale.any(axis=2)
        if unknown is not None:
            pending |= unknown
        rows, cols = np.nonzero(~pending)
        ts = destinations[cols]
        out[rows, :, ts] = self.pair_delays[:, ts].T
        return pending


class RoutingEngine:
    """Computes ECMP routings, loads, and path delays for one network.

    Args:
        network: the topology.
        backend: kernel backend — ``"python"`` (per-destination pure
            Python loops, fastest at backbone scale), ``"vector"``
            (array-native destination batches, fastest on large
            instances) or ``"auto"`` (default; per-call choice from the
            instance's node/arc/destination counts).  Backends are
            bit-identical on integer-weight instances, so this is
            purely an execution knob.
    """

    #: Capacity of the per-destination path-delay memo.
    _DELAY_MEMO_SIZE = 16384

    def __init__(self, network: Network, backend: str = "auto") -> None:
        self._network = network
        self._backend = validate_backend(backend)
        self._plan = PropagationPlan.for_network(network)
        self._batch_plan = BatchPlan.for_network(network)
        self._delay_memo: OrderedDict[tuple, np.ndarray] = OrderedDict()

    @property
    def network(self) -> Network:
        """The topology this engine routes over."""
        return self._network

    @property
    def backend(self) -> str:
        """The configured kernel backend (``auto``/``python``/``vector``)."""
        return self._backend

    @property
    def plan(self) -> PropagationPlan:
        """The propagation plan (shareable with an incremental router)."""
        return self._plan

    def _resolve(self, num_destinations: int) -> str:
        """The concrete backend for a batch of this many destinations."""
        net = self._network
        return resolve_backend(
            self._backend, net.num_nodes, net.num_arcs, num_destinations
        )

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def route_class(
        self,
        weights: np.ndarray,
        demands: np.ndarray,
        scenario: FailureScenario = NORMAL,
        validate: bool = True,
    ) -> ClassRouting:
        """Route one traffic class and return its loads and DAG structure.

        Only the demand-carrying distance columns are computed (Dijkstra
        on the reversed graph), since they are all the engine — and every
        downstream consumer — ever reads.

        Args:
            weights: per-arc weights of this class, integer-valued >= 1.
            demands: ``(N, N)`` demand matrix in bits/s; diagonal ignored.
            scenario: failure scenario (dead arcs, removed nodes).
            validate: skip the weight/demand shape checks when False
                (the evaluator validates once per setting instead of once
                per scenario of a sweep).
        """
        net = self._network
        demands = np.asarray(demands, dtype=np.float64)
        if validate and demands.shape != (net.num_nodes, net.num_nodes):
            raise ValueError("demand matrix shape must be (N, N)")
        if scenario.removed_nodes:
            demands = demands.copy()
            removed = list(scenario.removed_nodes)
            demands[removed, :] = 0.0
            demands[:, removed] = 0.0

        disabled = (
            disabled_arc_mask(net, scenario)
            if scenario.failed_arcs
            else None
        )
        weights = np.asarray(weights, dtype=np.float64)
        if validate:
            _validate_weights(net, weights)
        destinations = np.flatnonzero(demands.sum(axis=0) > 0.0)
        # The demand-carrying columns are computed once, contiguously,
        # and threaded through masks and propagation directly; the
        # (N, N) matrix on the routing is a scatter of the same columns
        # (consumers index it per destination).  The configured backend
        # also selects the Dijkstra implementation: the python stack
        # runs the per-destination heap loop, the vector stack batched
        # scipy, and auto dispatches by batch size (seed behavior).
        cols = distance_columns(
            net, weights, destinations, disabled, backend=self._backend
        )
        dist = np.full((net.num_nodes, net.num_nodes), np.inf)
        if destinations.size:
            dist[:, destinations] = cols
        masks = destination_mask_rows(net, weights, cols, disabled)

        resolved = self._resolve(destinations.size)
        if resolved != "python":
            loads_arr, und = batch_total_loads(
                self._batch_plan,
                masks,
                cols,
                demands[:, destinations],
                destinations,
            )
            # Fold undeliverable volumes in ascending destination order —
            # the exact float summation order of the python loop below.
            undelivered = 0.0
            for row in range(destinations.size):
                undelivered += float(und[row])
        else:
            loads = [0.0] * net.num_arcs
            undelivered = 0.0
            for row, t in enumerate(destinations):
                undelivered += fast_propagate_loads(
                    self._plan,
                    masks[row],
                    dist[:, t],
                    demands[:, t],
                    int(t),
                    loads,
                )
            loads_arr = np.asarray(loads, dtype=np.float64)
        return ClassRouting(
            network=net,
            scenario=scenario,
            dist=dist,
            destinations=destinations,
            masks=masks,
            loads=loads_arr,
            demands=demands,
            undelivered=undelivered,
        )

    # ------------------------------------------------------------------
    # path metrics over an existing routing
    # ------------------------------------------------------------------
    def path_delays(
        self,
        routing: ClassRouting,
        arc_delays: np.ndarray,
        mode: str = "worst",
        reuse: "PathDelayReuse | None" = None,
        memo: bool = False,
        handoffs: "tuple[BatchHandoff, ...]" = (),
    ) -> np.ndarray:
        """End-to-end path delay for every SD pair of a routed class.

        The per-scenario face of :func:`_delay_columns`: one task, with
        the NORMAL-column reuse rule and the delay memo wrapped around
        the driver.

        Args:
            routing: output of :meth:`route_class` (or of an incremental
                router).
            arc_delays: per-arc delay ``D_l`` in seconds (Eq. 1), computed
                from the *total* load across both classes.
            mode: ``"worst"`` (max over used ECMP paths, the default SLA
                evaluation) or ``"mean"`` (flow-weighted average).
            reuse: optional NORMAL-evaluation columns; every destination
                whose mask row and masked arc delays equal the NORMAL
                ones gets its NORMAL column verbatim
                (:meth:`PathDelayReuse.fill`), bit-identical to
                re-propagation.
            memo: additionally memoize delay columns on ``(mode,
                destination, mask, masked arc delays)`` — the exact
                inputs the propagation is a pure function of, so hits
                replay identical floats.  Off by default; the evaluator
                opts in alongside incremental routing (sweep states
                recur across local-search candidates).
            handoffs: load-propagation schedules of this routing's
                re-propagated destinations (from
                :meth:`~repro.routing.incremental.IncrementalRouter.
                route_scenario`), replayed instead of rebuilt.

        Returns:
            ``(N, N)`` matrix; entry ``(s, t)`` is the path delay for the
            pair, ``inf`` if disconnected, ``nan`` for destinations that
            carry no demand and for the diagonal.
        """
        if mode not in ("worst", "mean"):
            raise ValueError(f"unknown delay mode {mode!r}")
        net = self._network
        arc_delays = np.asarray(arc_delays, dtype=np.float64)
        dests = routing.destinations
        out = np.full((net.num_nodes, net.num_nodes), np.nan)
        if reuse is not None:
            pending = reuse.fill(
                dests, routing.masks[None], arc_delays[None], out[None]
            )[0]
        else:
            pending = np.ones(dests.size, dtype=bool)
        keys: "dict[int, tuple]" = {}
        if memo:
            ts = dests.tolist()
            for d in np.flatnonzero(pending).tolist():
                mask_row = routing.masks[d]
                key = (
                    mode,
                    ts[d],
                    mask_row.tobytes(),
                    arc_delays[mask_row].tobytes(),
                )
                cached = self._delay_memo.get(key)
                if cached is not None:
                    self._delay_memo.move_to_end(key)
                    out[:, ts[d]] = cached
                    pending[d] = False
                else:
                    keys[ts[d]] = key
        if pending.any():
            _delay_columns(
                self,
                mode,
                dests,
                routing.masks[None],
                routing.dist[None],
                arc_delays[None],
                pending[None],
                out[None],
                [
                    (
                        np.zeros(len(h.cells), dtype=np.intp),
                        np.asarray([t for _, t in h.cells], dtype=np.intp),
                        h.schedule,
                    )
                    for h in handoffs
                ],
            )
        for t, key in keys.items():
            self._memo_put(key, out[:, t].copy())
        return out

    def _memo_put(self, key: tuple, column: np.ndarray) -> None:
        self._delay_memo[key] = column
        while len(self._delay_memo) > self._DELAY_MEMO_SIZE:
            self._delay_memo.popitem(last=False)

    def path_max_utilization(
        self, routing: ClassRouting, utilization: np.ndarray
    ) -> np.ndarray:
        """Max arc utilization seen by each SD pair along its used paths.

        This is the per-pair "maximum link utilization" ingredient of
        Table V / Fig. 5d.  Entries mirror :meth:`path_delays`.
        """
        net = self._network
        out = np.full((net.num_nodes, net.num_nodes), np.nan)
        for row, t in enumerate(routing.destinations):
            worst = max_arc_value_on_paths(
                net,
                routing.masks[row],
                routing.dist[:, t],
                utilization,
                int(t),
            )
            out[:, t] = worst
            out[t, t] = np.nan
        return out


def _delay_columns(
    engine: RoutingEngine,
    mode: str,
    destinations: np.ndarray,
    masks: np.ndarray,
    dist: np.ndarray,
    arc_delays: np.ndarray,
    pending: np.ndarray,
    out: np.ndarray,
    shared: "list[tuple[np.ndarray, np.ndarray, BatchSchedule]]" = (),
) -> None:
    """The one path-delay driver: run the pending DPs of ``K`` tasks.

    Args:
        engine: the routing engine (plans and backend).
        mode: ``"worst"`` or ``"mean"``.
        destinations: the ``D`` destinations of every task, ascending.
        masks: ``(K, D, A)`` delay-class mask rows per task.
        dist: ``(K, N, N)`` delay-class distances per task.
        arc_delays: ``(K, A)`` arc delays per task.
        pending: ``(K, D)`` cells still needing their DP (reused and
            memoized ones already copied); cleared as cells are served.
        out: ``(K, N, N)`` path-delay matrices, written in place.
        shared: ``(task rows, destinations, schedule)`` triples of the
            load-propagation batches (:class:`BatchHandoff` resolved to
            task rows).  A schedule is replayed, writing all its columns,
            when at least half of them are pending: a column that was
            not pending gets the identical bits again.

    The cells left over run through the python kernel or chunked vector
    DPs as :func:`_vector_columns` decides.  Every column reads its own
    task's arc-delay row (the vector kernels' ``delay_rows`` hook), so
    it is bit-identical to a one-task call whatever shares its batch.
    """
    batch_propagate = (
        batch_propagate_mean_delay
        if mode == "mean"
        else batch_propagate_worst_delay
    )
    for rows, ts, schedule in shared:
        cols = np.searchsorted(destinations, ts)
        if 2 * np.count_nonzero(pending[rows, cols]) < len(ts):
            continue
        columns = batch_propagate(
            engine._batch_plan,
            None,
            None,
            arc_delays,
            ts,
            schedule=schedule,
            delay_rows=rows,
        )
        _write_columns(out, rows, ts, columns)
        pending[rows, cols] = False

    rows, pos = np.nonzero(pending)
    if not rows.size:
        return
    pending[rows, pos] = False
    ts = destinations[pos]
    net = engine.network
    if not _vector_columns(engine.backend, net, rows.size):
        propagate = (
            fast_propagate_mean_delay
            if mode == "mean"
            else fast_propagate_worst_delay
        )
        task = -1
        for k, d, t in zip(rows.tolist(), pos.tolist(), ts.tolist()):
            if k != task:  # cells come grouped by task
                task, delays = k, arc_delays[k].tolist()
                task_masks, task_dist, task_out = masks[k], dist[k], out[k]
            task_out[:, t] = propagate(
                engine.plan, task_masks[d], task_dist[:, t], delays, t
            )
            task_out[t, t] = np.nan
        return
    budget = kernel_cell_budget(net.num_arcs)
    for lo in range(0, rows.size, budget):
        chunk = slice(lo, lo + budget)
        columns = batch_propagate(
            engine._batch_plan,
            masks[rows[chunk], pos[chunk]],
            dist[rows[chunk], :, ts[chunk]].T,
            arc_delays,
            ts[chunk],
            delay_rows=rows[chunk],
        )
        _write_columns(out, rows[chunk], ts[chunk], columns)


def _write_columns(
    out: np.ndarray, rows: np.ndarray, ts: np.ndarray, columns: np.ndarray
) -> None:
    """Scatter ``(N, C)`` delay columns into ``out[rows, :, ts]``."""
    out[rows, :, ts] = columns.T
    out[rows, ts, ts] = np.nan
