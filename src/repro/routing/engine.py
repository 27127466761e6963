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
    batch_propagate_mean_delay,
    batch_propagate_worst_delay,
    batch_total_loads,
    build_schedule,
)


def _batch_delay_kernel(mode: str):
    """The batch path-delay kernel for ``mode`` (shared with the sweep
    engine, so both delay call sites pick the kernel one way)."""
    return (
        batch_propagate_mean_delay
        if mode == "mean"
        else batch_propagate_worst_delay
    )


#: Below this many leftover delay columns the per-destination python
#: kernel beats building a batch schedule.
_PY_DELAY_BATCH_MAX = 12


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
        # Batch schedules are cheap to rebuild and heavy to ship.
        state.pop("_batch_schedule", None)
        state.pop("_subset_schedule", None)
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
class PathDelayReuse:
    """Base-evaluation delay columns reusable by :meth:`RoutingEngine.
    path_delays` under a localized load change.

    Attributes:
        pair_delays: the base ``(N, N)`` path-delay matrix.
        arc_delays: the per-arc delays the base matrix was computed from.
        reusable: destinations whose distance column and mask row in the
            *current* routing are identical to the base routing's (the
            incremental router reports these).
    """

    pair_delays: np.ndarray
    arc_delays: np.ndarray
    reusable: frozenset[int]


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
            schedule = build_schedule(self._batch_plan, masks, cols)
            loads_arr, und = batch_total_loads(
                self._batch_plan,
                masks,
                cols,
                demands[:, destinations],
                destinations,
                schedule=schedule,
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
            schedule = None
        routing = ClassRouting(
            network=net,
            scenario=scenario,
            dist=dist,
            destinations=destinations,
            masks=masks,
            loads=loads_arr,
            demands=demands,
            undelivered=undelivered,
        )
        if schedule is not None:
            # Reused by path_delays on the same routing (pure function of
            # masks + dist, both frozen on the routing).
            object.__setattr__(routing, "_batch_schedule", schedule)
        return routing

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
    ) -> np.ndarray:
        """End-to-end path delay for every SD pair of a routed class.

        Args:
            routing: output of :meth:`route_class`.
            arc_delays: per-arc delay ``D_l`` in seconds (Eq. 1), computed
                from the *total* load across both classes.
            mode: ``"worst"`` (max over used ECMP paths, the default SLA
                evaluation) or ``"mean"`` (flow-weighted average).
            reuse: optional base-evaluation columns to copy instead of
                re-propagating.  A destination's delay column depends
                only on its DAG mask, its distance ordering, and the arc
                delays of *masked* arcs, so a destination in
                ``reuse.reusable`` (identical dist column and mask row in
                the base routing) whose mask avoids every arc with a
                changed delay gets its base column verbatim — bit-identical
                to re-propagation.
            memo: additionally memoize delay columns on ``(mode,
                destination, mask, dist, masked arc delays)`` — the exact
                inputs the propagation is a pure function of, so hits
                replay identical floats.  Off by default; the evaluator
                opts in alongside incremental routing (sweep states
                recur across local-search candidates).

        Returns:
            ``(N, N)`` matrix; entry ``(s, t)`` is the path delay for the
            pair, ``inf`` if disconnected, ``nan`` for destinations that
            carry no demand and for the diagonal.
        """
        if mode == "worst":
            propagate = fast_propagate_worst_delay
        elif mode == "mean":
            propagate = fast_propagate_mean_delay
        else:
            raise ValueError(f"unknown delay mode {mode!r}")
        net = self._network
        arc_delays = np.asarray(arc_delays, dtype=np.float64)
        delays_list: list[float] | None = None
        out = np.full((net.num_nodes, net.num_nodes), np.nan)
        #: Destinations that need propagation: (row, t, memo key).  The
        #: backend is resolved *after* the pre-pass, once the reuse/memo
        #: hits are known — warm sweeps leave few pending columns, and
        #: the propagation-only crossover decides for the rest.
        pending = self._delay_pending(
            routing, arc_delays, mode, reuse, memo, out
        )
        resolved = (
            resolve_backend(
                self._backend,
                net.num_nodes,
                net.num_arcs,
                len(pending),
                kind="propagate",
            )
            if pending
            else "python"
        )
        if pending and resolved == "python":
            delays_list = arc_delays.tolist()
            for row, t, key in pending:
                column = propagate(
                    self._plan,
                    routing.masks[row],
                    routing.dist[:, t],
                    delays_list,
                    t,
                )
                out[:, t] = column
                out[t, t] = np.nan
                if key is not None:
                    self._memo_put(key, out[:, t].copy())
            pending = []
        if pending:
            batch_propagate = _batch_delay_kernel(mode)
            schedule = None
            if len(pending) == len(routing.destinations):
                # Whole-batch propagation: reuse the schedule route_class
                # cached on the routing.
                schedule = routing.__dict__.get("_batch_schedule")
            else:
                # The incremental router hands over the schedule of the
                # destinations it re-propagated.  When most of them are
                # pending anyway, propagate that whole batch through the
                # prebuilt schedule — recomputing a column that was
                # individually reusable replays the identical bits — and
                # only the leftovers need fresh work.
                handed = routing.__dict__.get("_subset_schedule")
                if handed is not None:
                    bd = np.frombuffer(handed[0], dtype=np.intp)
                    bd_set = set(int(t) for t in bd)
                    covered = [p for p in pending if p[1] in bd_set]
                    if 2 * len(covered) >= len(bd):
                        rows_bd = np.searchsorted(routing.destinations, bd)
                        columns = batch_propagate(
                            self._batch_plan,
                            routing.masks[rows_bd],
                            None,
                            arc_delays,
                            bd,
                            schedule=handed[1],
                        )
                        pos_of = {int(t): i for i, t in enumerate(bd)}
                        for _, t, key in covered:
                            out[:, t] = columns[:, pos_of[t]]
                            out[t, t] = np.nan
                            if key is not None:
                                self._memo_put(key, out[:, t].copy())
                        pending = [
                            p for p in pending if p[1] not in bd_set
                        ]
        if pending:
            if len(pending) <= _PY_DELAY_BATCH_MAX and delays_list is None:
                delays_list = arc_delays.tolist()
            if delays_list is not None:
                # Leftover destinations too few to amortize a schedule
                # build: the per-destination python kernel is cheaper.
                for row, t, key in pending:
                    column = propagate(
                        self._plan,
                        routing.masks[row],
                        routing.dist[:, t],
                        delays_list,
                        t,
                    )
                    out[:, t] = column
                    out[t, t] = np.nan
                    if key is not None:
                        self._memo_put(key, out[:, t].copy())
            else:
                rows = np.asarray([row for row, _, _ in pending])
                ts = np.asarray([t for _, t, _ in pending])
                columns = batch_propagate(
                    self._batch_plan,
                    routing.masks[rows],
                    # The DP only needs distances to build a schedule.
                    routing.dist[:, ts] if schedule is None else None,
                    arc_delays,
                    ts,
                    schedule=schedule,
                )
                for i, (_, t, key) in enumerate(pending):
                    out[:, t] = columns[:, i]
                    out[t, t] = np.nan
                    if key is not None:
                        self._memo_put(key, out[:, t].copy())
        return out

    def _delay_pending(
        self,
        routing: ClassRouting,
        arc_delays: np.ndarray,
        mode: str,
        reuse: "PathDelayReuse | None",
        memo: bool,
        out: np.ndarray,
    ) -> "list[tuple[int, int, tuple | None]]":
        """The reuse/memo pre-pass of :meth:`path_delays`.

        Copies reusable and memoized delay columns into ``out`` and
        returns the ``(row, t, memo key)`` triples that still need
        propagation.
        """
        changed = (
            arc_delays != reuse.arc_delays if reuse is not None else None
        )
        pending: list[tuple[int, int, tuple | None]] = []
        for row, t in enumerate(routing.destinations):
            t = int(t)
            mask_row = routing.masks[row]
            if (
                reuse is not None
                and t in reuse.reusable
                and not bool(mask_row[changed].any())
            ):
                out[:, t] = reuse.pair_delays[:, t]
                continue
            key = None
            if memo:
                # The DP result is a pure function of (mode, t, mask,
                # masked delays): the distance column only supplies a
                # topological order of the DAG, and any topological
                # order yields the same bits (max is order-invariant,
                # mean accumulates in fixed arc order).
                key = (
                    mode,
                    t,
                    mask_row.tobytes(),
                    arc_delays[mask_row].tobytes(),
                )
                cached = self._delay_memo.get(key)
                if cached is not None:
                    self._delay_memo.move_to_end(key)
                    out[:, t] = cached
                    continue
            pending.append((row, t, key))
        return pending

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
