"""Incremental delta-rerouting: dynamic SPF + per-destination load deltas.

The local searches of Phases 1 and 2 evaluate candidates that differ from
the incumbent by exactly **one arc's weight**, and scenario sweeps
evaluate failures that kill anything from a single link to a whole SRLG
or region — :meth:`IncrementalRouter.route_scenario` answers *multi-arc*
scenarios exactly (the affected-destination test and the dynamic-SPF cone
repair are per-scenario, not per-arc), so the composed scenario families
of :mod:`repro.scenarios` ride the same fast path as single-link sweeps.
One rule works out every failure's structure (which destinations are
hit, which need new distances, and those distances):
:meth:`IncrementalRouter._group_structure`, run for a batch sweep group
(:func:`repro.routing.sweep.route_scenario_batch`) and, as a group of
one, for :meth:`~IncrementalRouter.route_scenario`, which adds a node
removal's demand zeroing on top.  The new distances come from the cone
repair, one cell at a time, except in a group where at least two
scenarios need them on an instance of at most
:data:`~repro.routing.backend.CLOSURE_MAX_NODES` nodes: there one
min-plus closure over the scenarios' stacked adjacency matrices
(:func:`_closure_columns`) answers every cell at once.
Traffic variants never share a router: a router is bound to one demand
matrix (checked via :meth:`IncrementalRouter.routes_demands`), which
keeps the propagation-memo keys traffic-variant-aware by construction.

Routing a candidate or scenario from scratch recomputes every
destination's distance column, DAG mask and load propagation even though
a small delta can only touch the destinations whose shortest paths the
changed arcs participate in (or could start participating in).
:class:`IncrementalRouter` exploits that:

* it holds the routing of one traffic class **decomposed per
  destination** — distance columns, DAG-mask rows, per-destination load
  contributions and undelivered volumes;
* on a delta it first runs the *affected-destination test* on the cached
  distance columns: a weight **increase** on arc ``(u, v)`` can only
  affect destinations whose DAG contains the arc (an off-DAG arc getting
  heavier changes nothing — the limit of that argument, weight to
  infinity, is the classic unused-arc failure shortcut); a weight
  **decrease** to ``w`` can only affect destinations ``t`` with
  ``dist(u, t) >= w + dist(v, t)`` (otherwise the arc is strictly worse
  than what ``u`` already has, for every source);
* only the affected destinations get a fresh single-destination Dijkstra
  (on the reversed graph), mask-row rebuild and load re-propagation;
* a delta first journals the rows it is about to touch, so a sync that
  takes the arc straight back (a rejected local-search move) restores
  those bytes instead of replaying the inverse delta.

The affected-destination test is one function,
:func:`affected_destinations`: the router runs it on its base state, and
the move trial (:class:`repro.core.evaluation.MoveTrial`) on the
incumbent's scenario routings, to prove a class routing unmoved.

Results are **bit-identical** to :meth:`repro.routing.engine.
RoutingEngine.route_class`.  Two properties make that possible: arc
weights are integers (the router refuses others), so every path length
is exact in float64 and "mathematically unchanged" implies "bitwise
unchanged"; and the shared ``loads`` / ``undelivered`` totals are
*re-folded* from the per-destination contributions in ascending
destination order — the same float summation order ``route_class`` uses
— rather than patched with a subtract-and-add (float addition is not
associative, so in-place patching would drift by ulps).
``tests/routing/test_incremental.py`` pins the parity property-style.

Every load propagation — a delta's rows, a scenario's hit cells, a batch
sweep group's chunk (:func:`repro.routing.sweep.route_scenario_batch`) —
runs through one driver, :func:`_load_columns`, which picks the python
or vector kernel by the engine's one rule.  The propagation memo is a
probe/fill wrapper around it (:meth:`IncrementalRouter._propagate_cells`)
that only the move and per-scenario paths apply.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.routing.backend import CLOSURE_MAX_NODES, validate_backend
from repro.routing.engine import BatchHandoff, ClassRouting, _vector_columns
from repro.routing.failures import (
    NORMAL,
    FailureScenario,
    disabled_arc_mask,
)
from repro.routing.fastpath import (
    PropagationPlan,
    destination_mask_rows,
    fast_propagate_loads,
)
from repro.routing.network import Network
from repro.routing.spf import (
    _PY_DIJKSTRA_MAX_COLS,
    SPF_TOLERANCE,
    _dijkstra_to,
    _reverse_adjacency,
    distance_columns,
)
from repro.routing.vectorized import (
    BatchPlan,
    BatchSchedule,
    batch_propagate_loads,
    build_schedule,
)

#: Weight-delta count above which :meth:`IncrementalRouter.sync` rebuilds
#: from scratch instead of replaying per-arc deltas.  A local-search move
#: or its rollback is 1 arc per class and a Phase-1b base hop up to 4;
#: beyond that a rebuild's single batched Dijkstra wins.
SYNC_DELTA_LIMIT = 4

#: Capacity of the per-destination propagation memo (entries).
PROPAGATION_MEMO_SIZE = 16384

#: Bytes of one ``(scenarios, N, N)`` float64 stack of the batched
#: min-plus closure (:func:`_closure_columns`), which holds two such
#: stacks; further scenarios run in further chunks, so the scratch is a
#: constant.  Stacks of 0.25-0.6 MB keep each step's operands in cache
#: (2 MB L2 per core): they closed a whole link group 1.16x, 1.66x and
#: 1.68x faster than one whole-group stack at 30, 50 and 64 nodes.
CLOSURE_STACK_BYTES = 512_000


class _PropagationMemo:
    """Exact memo of per-destination load propagations.

    A destination's load contribution and undelivered volume are a pure
    function of ``(destination, mask row, distance column)`` for a fixed
    demand matrix, so results are keyed by those bytes *exactly* — a hit
    replays the identical floats, no approximation involved.  The sweep
    access pattern makes this pay: one candidate's scenario states
    reappear for the next candidate whenever the move arc does not touch
    them, and a later move often takes an arc back to a weight an
    earlier state had.  (A rejected move's rollback needs no memo: it
    restores the delta's journal.)
    """

    __slots__ = ("_entries", "_max_entries", "hits", "misses")

    def __init__(self, max_entries: int = PROPAGATION_MEMO_SIZE) -> None:
        self._entries: OrderedDict[
            tuple[int, bytes, bytes], tuple[np.ndarray, float]
        ] = OrderedDict()
        self._max_entries = max_entries
        self.hits = 0
        self.misses = 0

    def get(
        self, t: int, mask_row: np.ndarray, dist_col: np.ndarray
    ) -> tuple[np.ndarray, float] | None:
        key = (t, mask_row.tobytes(), dist_col.tobytes())
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(
        self,
        t: int,
        mask_row: np.ndarray,
        dist_col: np.ndarray,
        contrib: np.ndarray,
        undelivered: float,
    ) -> None:
        key = (t, mask_row.tobytes(), dist_col.tobytes())
        self._entries[key] = (contrib, undelivered)
        while len(self._entries) > self._max_entries:
            self._entries.popitem(last=False)


@dataclass
class RouterStats:
    """Counters describing how much work the router actually did.

    Attributes:
        rebuilds: full from-scratch builds (constructor + oversized syncs).
        deltas: single-arc weight deltas applied.
        destinations_recomputed: destination columns recomputed across all
            deltas and scenario routes (Dijkstra + mask + propagation).
        destinations_reused: destination columns served from cache by
            scenario routes.
        scenario_routes: failure scenarios routed, one per
            :meth:`IncrementalRouter.route_scenario` call and one per
            scenario of a :func:`~repro.routing.sweep.
            route_scenario_batch` group.
        restores: syncs that took the last delta's arc back by
            restoring its journal instead of replaying a delta.
    """

    rebuilds: int = 0
    deltas: int = 0
    destinations_recomputed: int = 0
    destinations_reused: int = 0
    scenario_routes: int = 0
    restores: int = 0


@dataclass(frozen=True)
class _Journal:
    """The inverse of one arc-weight delta: what it overwrote.

    Attributes:
        arc: the arc the delta changed.
        weight: the arc's weight before the delta.
        rows: the destination rows the delta touched.
        dist_cols, masks, contribs, und: those rows' distance columns,
            mask rows, load contributions and undelivered volumes
            before the delta.
        routing: the assembled routing before the delta (or None).
    """

    arc: int
    weight: float
    rows: np.ndarray
    dist_cols: np.ndarray
    masks: np.ndarray
    contribs: np.ndarray
    und: np.ndarray
    routing: "ClassRouting | None"


@dataclass
class _GroupStructure:
    """The structural half of a group of failures, before load propagation.

    The arrays :meth:`IncrementalRouter._group_structure` adds to the
    router's base state for ``S`` scenarios over ``R`` of its
    destination rows (all of them unless a node removal dropped some).

    Attributes:
        dist: ``(S, N, N)`` distance matrices (repaired columns patched,
            ``inf`` outside the ``R`` destinations).
        masks: ``(S, R, A)`` DAG mask rows, aligned with those rows.
        hit: ``(S, R)`` "a failed arc sat on this DAG" flags — the cells
            whose load contribution must be recomputed; every other cell
            keeps its base distance column, mask row and contribution.
    """

    dist: np.ndarray
    masks: np.ndarray
    hit: np.ndarray


@dataclass(frozen=True)
class ScenarioRouting:
    """A scenario routing plus the load schedule it hands to the delay DP.

    Attributes:
        routing: the :class:`ClassRouting` under the scenario,
            bit-identical to a from-scratch ``route_class`` call.
        handoffs: the schedule of the vector load batch that
            re-propagated some of its destinations (empty when none
            ran), for :meth:`~repro.routing.engine.RoutingEngine.
            path_delays` to replay.
    """

    routing: ClassRouting
    handoffs: "tuple[BatchHandoff, ...]" = ()


def affected_destinations(
    masks: np.ndarray,
    dist_u: np.ndarray,
    dist_v: np.ndarray,
    arc: int,
    old_weight: float,
    new_weight: float,
) -> np.ndarray:
    """The affected-destination test of one arc-weight change.

    Which destinations' routings can a change of arc ``(u, v)`` from
    ``old_weight`` to ``new_weight`` move?  An **increase** only those
    whose DAG contains the arc (for the rest the arc was strictly longer
    than the best path through its tail and just got longer still); a
    **decrease** to ``w`` only those ``t`` with ``dist(u, t) >= w +
    dist(v, t)`` (otherwise the arc is strictly worse than what ``u``
    already has, for every source).  Every other destination keeps its
    distance column, mask row and loads bit for bit (integer weights).

    Args:
        masks: ``(D, A)`` DAG mask rows of the ``D`` destinations.
        dist_u: ``(D,)`` distances from ``u`` to those destinations.
        dist_v: ``(D,)`` distances from ``v`` to them.
        arc: the changed arc.
        old_weight: its weight the masks and distances were built with.
        new_weight: its new weight (different from ``old_weight``).

    Returns:
        ``(D,)`` flags of the destinations the change may move.
    """
    if new_weight > old_weight:
        return masks[:, arc]
    with np.errstate(invalid="ignore"):
        target = new_weight + dist_v
        joins = np.abs(dist_u - target) <= SPF_TOLERANCE
        improves = dist_u > target + SPF_TOLERANCE
    joins &= np.isfinite(dist_u)
    return np.isfinite(dist_v) & (joins | improves)


def _load_columns(
    router: "IncrementalRouter",
    ts: np.ndarray,
    masks: np.ndarray,
    dist_cols: np.ndarray,
    demands: np.ndarray,
) -> "tuple[np.ndarray, np.ndarray, BatchSchedule | None]":
    """The one load-contribution driver: propagate ``C`` cells.

    Args:
        router: the router whose plans and backend to use.
        ts: the ``C`` destinations.
        masks: ``(C, A)`` DAG mask rows.
        dist_cols: ``(N, C)`` distance columns.
        demands: the ``(N, N)`` demand matrix routed (column ``t`` feeds
            destination ``t``).

    Returns:
        ``(contribs, undelivered, schedule)``: the ``(C, A)`` load
        contributions, the ``(C,)`` undeliverable volumes, and the
        vector batch's schedule (None when the python kernel ran, as
        :func:`~repro.routing.engine._vector_columns` decides).  Every
        row is bit-identical to one ``fast_propagate_loads`` call
        whichever kernel produced it.
    """
    if not _vector_columns(router._backend, router._net, len(ts)):
        num_arcs = router._net.num_arcs
        rows, und = [], []
        for i, t in enumerate(ts.tolist()):
            row = [0.0] * num_arcs
            und.append(
                fast_propagate_loads(
                    router._plan, masks[i], dist_cols[:, i], demands[:, t],
                    t, row,
                )
            )
            rows.append(row)
        return (
            np.array(rows, dtype=np.float64).reshape(len(ts), num_arcs),
            np.array(und, dtype=np.float64),
            None,
        )
    schedule = build_schedule(router._batch_plan, masks, dist_cols)
    contribs, und = batch_propagate_loads(
        router._batch_plan,
        masks,
        dist_cols,
        demands[:, ts],
        ts,
        schedule=schedule,
    )
    return contribs, und, schedule


def _closure_columns(
    network: Network,
    weights: np.ndarray,
    disabled: np.ndarray,
    scen: np.ndarray,
    ts: np.ndarray,
) -> np.ndarray:
    """Distance columns of ``C`` cells from batched min-plus closures.

    Floyd–Warshall over ``S`` arc-failure scenarios at once: the
    failure-free adjacency matrix (``inf`` off the arcs, zero diagonal;
    a network has at most one arc per ordered pair) is stacked once per
    scenario, each scenario's disabled arcs are set to ``inf``, and
    ``N`` in-place relaxation steps close every stack.  The scenarios
    run in chunks of at most :data:`CLOSURE_STACK_BYTES` per stack,
    which bounds the scratch memory and keeps each step's operands in
    cache.  Weights are integers, so every path sum is exact in
    float64: the distances equal a Dijkstra's (and the cone repair's)
    bit for bit, and a node cut off from a destination stays ``inf``.

    Args:
        network: the topology.
        weights: the ``(A,)`` arc weights.
        disabled: ``(S, A)`` per-scenario disabled-arc flags.
        scen: the ``C`` cells' scenario indices into ``disabled``.
        ts: the ``C`` cells' destinations.

    Returns:
        ``(N, C)`` distances: column ``i`` runs from every node to
        ``ts[i]`` under scenario ``scen[i]``.
    """
    n = network.num_nodes
    src, dst = network.arc_src, network.arc_dst
    adj = np.full((n, n), np.inf)
    adj[src, dst] = weights
    np.fill_diagonal(adj, 0.0)
    num_scen = disabled.shape[0]
    size = min(num_scen, max(1, CLOSURE_STACK_BYTES // (8 * n * n)))
    stack = np.empty((size, n, n))
    via = np.empty_like(stack)
    cols = np.empty((n, scen.size))
    for lo in range(0, num_scen, size):
        block = disabled[lo: lo + size]
        dist, tmp = stack[: len(block)], via[: len(block)]
        dist[:] = adj
        dead_s, dead_a = np.nonzero(block)
        dist[dead_s, src[dead_a], dst[dead_a]] = np.inf
        for k in range(n):
            np.add(dist[:, :, k, None], dist[:, None, k, :], out=tmp)
            np.minimum(dist, tmp, out=dist)
        cells = np.flatnonzero((scen >= lo) & (scen < lo + size))
        cols[:, cells] = dist[scen[cells] - lo, :, ts[cells]].T
    return cols


class IncrementalRouter:
    """Maintains one traffic class's routing under evolving weights.

    The router always represents the **failure-free** routing of its
    demand matrix under the current weights; failure scenarios are
    answered as one-shot deltas (:meth:`route_scenario`) that never
    mutate the base state.

    Args:
        network: the topology.
        demands: ``(N, N)`` demand matrix of this class (validated once
            here, never again).
        weights: initial per-arc weights, integers >= 1 (the exact
            arithmetic bit-identity rests on; others raise ValueError).
        plan: optional prebuilt propagation plan (shared with the engine).
        backend: kernel backend; see :mod:`repro.routing.backend`.
            Every load propagation goes through :func:`_load_columns`,
            which picks the python or vector kernel per batch — safe
            because the kernels are bit-identical.
    """

    def __init__(
        self,
        network: Network,
        demands: np.ndarray,
        weights: np.ndarray,
        plan: PropagationPlan | None = None,
        backend: str = "auto",
    ) -> None:
        self._net = network
        self._plan = plan or PropagationPlan.for_network(network)
        self._backend = validate_backend(backend)
        self._batch_plan = BatchPlan.for_network(network)
        demands = np.asarray(demands, dtype=np.float64)
        if demands.shape != (network.num_nodes, network.num_nodes):
            raise ValueError("demand matrix shape must be (N, N)")
        self._demands = demands
        self._dest = np.flatnonzero(demands.sum(axis=0) > 0.0)
        self._weights = np.empty(0)
        self._dist_cols = np.empty((0, 0))
        self._masks = np.empty((0, 0), dtype=bool)
        self._contribs = np.empty((0, 0))
        self._und = np.empty(0)
        self._routing: ClassRouting | None = None
        #: The inverse of the last delta (see :meth:`sync`); None after
        #: a rebuild or a restore.
        self._journal: _Journal | None = None
        self._memo = _PropagationMemo()
        #: Weight-independent per-scenario structures (failed arcs,
        #: disabled mask + list form) — failure sets are swept thousands
        #: of times, scenarios are hashable.
        self._scenario_info: dict[FailureScenario, tuple] = {}
        #: Current weights as a plain list (for the in-process Dijkstra);
        #: rebuilt lazily after weight changes.
        self._weights_list: list[float] | None = None
        self._arc_src_list = [int(u) for u in network.arc_src]
        #: Arc ids grouped by source node, and where each node with
        #: out-arcs starts in that order (per-node DAG out-arc flags).
        self._arcs_by_src = np.argsort(network.arc_src, kind="stable")
        self._src_starts = np.unique(
            network.arc_src[self._arcs_by_src], return_index=True
        )[1]
        self._rev_adjacency = _reverse_adjacency(network)
        self.stats = RouterStats()
        self._rebuild(weights)
        #: ``(D, N')`` "node has a DAG out-arc towards this destination"
        #: flags (see :meth:`_has_dag_out`).  A node has one exactly when
        #: it reaches the destination and is not it (weights are finite),
        #: so the flags do not depend on weights and are computed once,
        #: not per router state.
        self._base_out = self._has_dag_out(self._masks)

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------
    @property
    def network(self) -> Network:
        """The routed topology."""
        return self._net

    @property
    def weights(self) -> np.ndarray:
        """The current per-arc weights (read-only view)."""
        view = self._weights.view()
        view.flags.writeable = False
        return view

    @property
    def destinations(self) -> np.ndarray:
        """Demand-carrying destinations, ascending (fixed per demands)."""
        return self._dest

    def routes_demands(self, demands: np.ndarray) -> bool:
        """Whether this router is bound to exactly these demands.

        A router's distance columns, contributions and propagation-memo
        entries are all relative to the demand matrix it was built with;
        traffic variants must therefore use a *separate* router (the
        evaluator keys sibling oracles by variant digest).  This check
        lets callers detect a mismatched router instead of silently
        reusing stale loads — identity first, value equality as the
        fallback.
        """
        return demands is self._demands or bool(
            np.array_equal(demands, self._demands)
        )

    # ------------------------------------------------------------------
    # building and updating the base (normal-scenario) state
    # ------------------------------------------------------------------
    def _rebuild(self, weights: np.ndarray) -> None:
        weights = np.array(weights, dtype=np.float64, copy=True)
        if weights.shape != (self._net.num_arcs,):
            raise ValueError("weights must have one entry per arc")
        if np.any(weights < 1):
            raise ValueError("arc weights must be >= 1")
        if not np.all(np.isfinite(weights) & (weights == np.floor(weights))):
            raise ValueError("arc weights must be integers")
        self._weights = weights
        self._weights_list = None
        self._dist_cols = distance_columns(
            self._net, weights, self._dest, backend=self._backend
        )
        self._masks = destination_mask_rows(
            self._net, weights, self._dist_cols
        )
        num_arcs = self._net.num_arcs
        self._contribs = np.zeros((self._dest.size, num_arcs))
        self._und = np.zeros(self._dest.size)
        self._propagate_rows(np.arange(self._dest.size))
        self._routing = None
        self._journal = None
        self.stats.rebuilds += 1
        self.stats.destinations_recomputed += int(self._dest.size)

    def _repaired_column(
        self,
        base_col: np.ndarray,
        mask_row: np.ndarray,
        failed: list[int],
        failed_set: set[int],
        dead_list: "list[bool] | None",
    ) -> np.ndarray | None:
        """Dynamic-SPF *increase* repair of one cached distance column.

        Removing (or up-weighting) arcs can only lengthen paths, and only
        for the nodes whose **every** shortest path crosses a changed arc
        — the classic dynamic-SPF affected cone.  The cone ``A`` is found
        by a worklist over the DAG (a node joins when all its DAG
        out-arcs are failed or lead into ``A``); everything outside keeps
        its distance verbatim.  The cone is then re-settled by a tiny
        Dijkstra seeded from its boundary (best alive arc into a
        non-cone node).  Distances outside the cone are provably
        unchanged, so the result is bit-identical to a full recompute
        (integer weights, exact sums).

        Returns None — caller falls back to a full column — when the
        cone grows past the point where repair stops being cheaper.
        """
        if self._weights_list is None:
            self._weights_list = self._weights.tolist()
        out_arcs = self._plan.out_arcs
        arc_dst = self._plan.arc_dst
        in_arcs = self._rev_adjacency
        arc_src = self._arc_src_list
        weights = self._weights_list
        mask = mask_row
        limit = max(6, self._net.num_nodes // 3)

        cone: set[int] = set()
        pending = [arc_src[a] for a in failed if mask[a]]
        while pending:
            x = pending.pop()
            if x in cone:
                continue
            compromised = True
            for a in out_arcs[x]:
                if not mask[a] or a in failed_set:
                    continue
                if arc_dst[a] not in cone:
                    compromised = False
                    break
            if not compromised:
                continue
            cone.add(x)
            if len(cone) > limit:
                return None
            for a in in_arcs[x]:
                if mask[a]:
                    pending.append(arc_src[a])

        col = base_col.copy()
        inf = float("inf")
        best: dict[int, float] = {}
        heap: list[tuple[float, int]] = []
        for x in cone:
            seed = inf
            for a in out_arcs[x]:
                if dead_list is not None and dead_list[a]:
                    continue
                y = arc_dst[a]
                if y in cone:
                    continue
                candidate = weights[a] + col[y]
                if candidate < seed:
                    seed = candidate
            if seed < inf:
                best[x] = seed
                heapq.heappush(heap, (seed, x))
        while heap:
            d, x = heapq.heappop(heap)
            if d > best.get(x, inf):
                continue
            for a in in_arcs[x]:
                if dead_list is not None and dead_list[a]:
                    continue
                z = arc_src[a]
                if z not in cone:
                    continue
                candidate = weights[a] + d
                if candidate < best.get(z, inf):
                    best[z] = candidate
                    heapq.heappush(heap, (candidate, z))
        for x in cone:
            col[x] = best.get(x, inf)
        return col

    def _set_weight_entry(self, arc: int, new_weight: float) -> None:
        self._weights[arc] = new_weight
        if self._weights_list is not None:
            self._weights_list[arc] = new_weight

    def _propagate_cells(
        self,
        ts: np.ndarray,
        masks: np.ndarray,
        dist_cols: np.ndarray,
        demands: np.ndarray,
        memoize: "list[bool] | None" = None,
    ) -> "tuple[list[tuple[np.ndarray, float]], BatchHandoff | None]":
        """:func:`_load_columns` wrapped in the propagation memo.

        The move and per-scenario paths' probe/fill: a cell's
        contribution and undelivered volume are a pure function of
        ``(t, mask row, distance column)`` for the router's demand
        matrix, so cells whose demand column is the router's own
        (``memoize``, default all) are probed first and the misses are
        stored after the driver ran.  Returns one ``(contribution,
        undelivered)`` entry per cell and the handoff of the driver's
        vector batch, if one ran.
        """
        memo = self._memo
        entries: "list[tuple[np.ndarray, float] | None]" = []
        misses: list[int] = []
        for i, t in enumerate(ts.tolist()):
            entry = None
            if memoize is None or memoize[i]:
                entry = memo.get(t, masks[i], dist_cols[:, i])
            if entry is None:
                misses.append(i)
            entries.append(entry)
        if not misses:
            return entries, None
        if len(misses) < len(entries):
            ts, masks = ts[misses], masks[misses]
            dist_cols = dist_cols[:, misses]
        contribs, und, schedule = _load_columns(
            self, ts, masks, dist_cols, demands
        )
        for j, i in enumerate(misses):
            # Rows are copied so a memo entry never pins the batch.
            entry = (
                contribs[j].copy() if len(misses) > 1 else contribs[j],
                float(und[j]),
            )
            entries[i] = entry
            if memoize is None or memoize[i]:
                memo.put(int(ts[j]), masks[j], dist_cols[:, j], *entry)
        if schedule is None:
            return entries, None
        return entries, BatchHandoff(
            cells=tuple((0, t) for t in ts.tolist()), schedule=schedule
        )

    def _propagate_rows(self, rows: np.ndarray) -> None:
        """Base-state load propagation of ``rows`` (memo-wrapped)."""
        entries, _ = self._propagate_cells(
            self._dest[rows],
            self._masks[rows],
            self._dist_cols[:, rows],
            self._demands,
        )
        for row, (contrib, undelivered) in zip(rows.tolist(), entries):
            self._contribs[row] = contrib
            self._und[row] = undelivered

    def sync(self, weights: np.ndarray) -> int:
        """Bring the router to ``weights`` by the cheapest route.

        Diffs against the current weights; more than
        :data:`SYNC_DELTA_LIMIT` changed arcs trigger a full rebuild.
        Otherwise, when the weights take the last delta's arc back to
        its old weight (a rolled-back move), the delta's journal is
        restored: the router's state before that delta equalled a
        from-scratch build at those weights, so the restored bytes do
        too.  Any other changed arc is replayed as a single-arc delta
        (each touching only its affected destinations).

        Returns:
            The number of changed arcs observed.
        """
        weights = np.asarray(weights, dtype=np.float64)
        changed = np.flatnonzero(weights != self._weights)
        count = int(changed.size)
        if count == 0:
            return 0
        if count > SYNC_DELTA_LIMIT:
            self._rebuild(weights)
            return count
        journal = self._journal
        if journal is not None and weights[journal.arc] == journal.weight:
            self._restore(journal)
            changed = changed[changed != journal.arc]
        for arc in changed:
            self.set_arc_weight(int(arc), float(weights[arc]))
        return count

    def _restore(self, journal: _Journal) -> None:
        """Put back what the journalled delta overwrote."""
        self._set_weight_entry(journal.arc, journal.weight)
        rows = journal.rows
        self._dist_cols[:, rows] = journal.dist_cols
        self._masks[rows] = journal.masks
        self._contribs[rows] = journal.contribs
        self._und[rows] = journal.und
        self._routing = journal.routing
        self._journal = None
        self.stats.restores += 1

    def set_arc_weight(self, arc: int, new_weight: float) -> int:
        """Apply one arc-weight delta, updating only affected destinations.

        The affected destinations come from :func:`affected_destinations`
        on the cached distance columns, and the delta journals their
        rows before touching them (see :meth:`sync`):

        * **increase** — among the destinations whose DAG contains the
          arc, those where the arc's source keeps another DAG out-arc
          keep all their distances, so only the mask bit flips and the
          loads re-propagate — no Dijkstra; the rest get the cone
          repair.
        * **decrease** — exact equality ``dist(u, t) == w + dist(v, t)``
          means the arc *joins* the DAG without moving any distance
          (mask bit + re-propagation only), strict improvement means
          distances genuinely drop (fresh Dijkstra column).

        Returns:
            The number of destinations touched (0 when the delta provably
            cannot change the routing — e.g. a weight increase on an arc
            lying on no destination's DAG, the classic unused-arc case).
        """
        new_weight = float(new_weight)
        if new_weight < 1:
            raise ValueError("arc weights must be >= 1")
        if not new_weight.is_integer():
            raise ValueError("arc weights must be integers")
        old_weight = float(self._weights[arc])
        if new_weight == old_weight:
            return 0
        net = self._net
        u, v = int(net.arc_src[arc]), int(net.arc_dst[arc])
        du, dv = self._dist_cols[u], self._dist_cols[v]
        rows = np.flatnonzero(
            affected_destinations(
                self._masks, du, dv, arc, old_weight, new_weight
            )
        )
        self._journal = _Journal(
            arc=arc,
            weight=old_weight,
            rows=rows,
            dist_cols=self._dist_cols[:, rows],
            masks=self._masks[rows],
            contribs=self._contribs[rows],
            und=self._und[rows],
            routing=self._routing,
        )
        if not rows.size:
            mask_only = spf_rows = rows
        elif new_weight > old_weight:
            out_u = net.out_arcs[u]
            others = out_u[out_u != arc]
            if others.size:
                dist_keeps = self._masks[np.ix_(rows, others)].any(axis=1)
            else:
                dist_keeps = np.zeros(rows.size, dtype=bool)
            mask_only = rows[dist_keeps]
            spf_rows = rows[~dist_keeps]
        else:
            improves = du[rows] > new_weight + dv[rows] + SPF_TOLERANCE
            mask_only = rows[~improves]
            spf_rows = rows[improves]
        self._set_weight_entry(arc, new_weight)
        if mask_only.size:
            # The arc leaves (increase) or joins (decrease) those DAGs.
            self._masks[mask_only, arc] = new_weight < old_weight
            self._propagate_rows(mask_only)
        if spf_rows.size:
            self._recompute_rows(
                spf_rows,
                repair_failed=[arc] if new_weight > old_weight else None,
            )
        self.stats.deltas += 1
        if rows.size:
            self._routing = None
            self.stats.destinations_recomputed += int(rows.size)
        return int(rows.size)

    def _columns_for(
        self,
        dests: np.ndarray,
        disabled: np.ndarray | None = None,
        dead_list: "list[bool] | None" = None,
    ) -> np.ndarray:
        """Distance columns via the cheapest applicable Dijkstra.

        Small batches run the in-process heap Dijkstra over adjacency
        lists the router caches across calls (no per-call conversions at
        all); larger batches take the engine's size dispatch.  Both
        produce the same bits — weights are integers, path sums exact.
        """
        if len(dests) <= _PY_DIJKSTRA_MAX_COLS:
            if self._weights_list is None:
                self._weights_list = self._weights.tolist()
            n = self._net.num_nodes
            out = np.empty((n, len(dests)), dtype=np.float64)
            for i, t in enumerate(dests):
                out[:, i] = _dijkstra_to(
                    n,
                    self._rev_adjacency,
                    self._arc_src_list,
                    self._weights_list,
                    dead_list,
                    int(t),
                )
            return out
        # Repair batches are small; outside the pure-python stack the
        # size dispatch stays the cheapest choice.
        backend = "python" if self._backend == "python" else "auto"
        return distance_columns(
            self._net, self._weights, dests, disabled, backend=backend
        )

    def _recompute_rows(
        self, rows: np.ndarray, repair_failed: "list[int] | None" = None
    ) -> None:
        """Fresh distance columns, mask rows and propagations for ``rows``.

        With ``repair_failed`` (an effective weight-increase delta on
        those arcs) each column first tries the dynamic-SPF cone repair;
        only columns whose cone grows too large run a full Dijkstra.
        """
        dests = self._dest[rows]
        n = self._net.num_nodes
        cols = np.empty((n, rows.size), dtype=np.float64)
        missing = []
        if repair_failed is not None:
            repair_failed_set = set(repair_failed)
            for i, row in enumerate(rows):
                repaired = self._repaired_column(
                    self._dist_cols[:, row],
                    self._masks[row],
                    repair_failed,
                    repair_failed_set,
                    None,
                )
                if repaired is None:
                    missing.append(i)
                else:
                    cols[:, i] = repaired
        else:
            missing = list(range(rows.size))
        if missing:
            cols[:, missing] = self._columns_for(dests[missing])
        self._dist_cols[:, rows] = cols
        self._masks[rows] = destination_mask_rows(
            self._net, self._weights, cols
        )
        self._propagate_rows(rows)

    # ------------------------------------------------------------------
    # assembling routings
    # ------------------------------------------------------------------
    @property
    def routing(self) -> ClassRouting:
        """The failure-free :class:`ClassRouting` under current weights.

        Bit-identical to ``route_class(weights, demands)``: the shared
        ``loads`` array and the ``undelivered`` total are folded from the
        per-destination contributions in ascending destination order —
        exactly the summation order of the from-scratch loop.  The
        assembled routing is cached until the next effective delta.
        """
        if self._routing is None:
            n = self._net.num_nodes
            dist = np.full((n, n), np.inf)
            dist[:, self._dest] = self._dist_cols
            loads = np.zeros(self._net.num_arcs)
            undelivered = 0.0
            for row in range(self._dest.size):
                loads += self._contribs[row]
                undelivered += float(self._und[row])
            self._routing = ClassRouting(
                network=self._net,
                scenario=NORMAL,
                dist=dist,
                destinations=self._dest.copy(),
                masks=self._masks.copy(),
                loads=loads,
                demands=self._demands,
                undelivered=undelivered,
            )
        return self._routing

    def route_scenario(self, scenario: FailureScenario) -> ScenarioRouting:
        """Route this class under a failure, reusing unaffected columns.

        A one-shot delta against the base state (never mutates it),
        structured as a group of one (:meth:`_group_structure`): only
        destinations with a failed arc on their DAG recompute anything,
        and only those where some node loses every DAG out-arc get new
        distances.  A node removal also zeroes the node's demand row and
        column: destinations left without demand drop out, and those
        that lost a source re-propagate over their (possibly unchanged)
        column.  The recomputed cells go through the propagation memo
        (a cell whose demand column changed bypasses it), every other
        cell keeps its base contribution, and the totals fold in
        ascending destination order for bit-identity with
        ``route_class``.
        """
        if scenario.is_normal:
            return ScenarioRouting(routing=self.routing)
        self.stats.scenario_routes += 1
        demands, dest, rows = self._demands, self._dest, slice(None)
        removed = list(scenario.removed_nodes)
        if removed:
            demands = demands.copy()
            demands[removed, :] = 0.0
            demands[:, removed] = 0.0
            dest = np.flatnonzero(demands.sum(axis=0) > 0.0)
            rows = np.searchsorted(self._dest, dest)
        group = self._group_structure([scenario], rows)
        dist, masks, need = group.dist[0], group.masks[0], group.hit[0]
        memoize = None
        if removed:
            lost_source = (self._demands[removed][:, dest] > 0.0).any(axis=0)
            need = need | lost_source
            memoize = (~lost_source[need]).tolist()
        need = np.flatnonzero(need)
        computed: "dict[int, tuple[np.ndarray, float]]" = {}
        handoffs: "tuple[BatchHandoff, ...]" = ()
        if need.size:
            ts = dest[need]
            entries, handoff = self._propagate_cells(
                ts, masks[need], dist[:, ts], demands, memoize
            )
            computed = dict(zip(need.tolist(), entries))
            if handoff is not None:
                handoffs = (handoff,)
        base_contribs, base_und = self._contribs[rows], self._und[rows]
        loads = np.zeros(self._net.num_arcs)
        undelivered = 0.0
        for pos in range(dest.size):
            entry = computed.get(pos)
            if entry is None:
                loads += base_contribs[pos]
                undelivered += float(base_und[pos])
            else:
                loads += entry[0]
                undelivered += entry[1]
        self.stats.destinations_recomputed += int(need.size)
        self.stats.destinations_reused += int(dest.size - need.size)
        routing = ClassRouting(
            network=self._net,
            scenario=scenario,
            dist=dist,
            destinations=dest,
            masks=masks,
            loads=loads,
            demands=demands,
            undelivered=undelivered,
        )
        return ScenarioRouting(routing=routing, handoffs=handoffs)

    def _scenario_info_for(self, scenario: FailureScenario) -> tuple:
        """Weight-independent structures of one scenario, cached.

        ``(failed arcs, failed set, disabled mask, disabled list)``.
        """
        info = self._scenario_info.get(scenario)
        if info is None:
            failed = [int(a) for a in scenario.failed_arcs]
            disabled = disabled_arc_mask(self._net, scenario)
            info = (failed, set(failed), disabled, disabled.tolist())
            if len(self._scenario_info) > 4096:
                self._scenario_info.clear()
            self._scenario_info[scenario] = info
        return info

    def _has_dag_out(self, rows: np.ndarray) -> np.ndarray:
        """Whether each node keeps a DAG out-arc in ``(R, A)`` mask rows.

        ``(R, N')`` over the ``N'`` nodes that have out-arcs (a node
        without any can have none on a DAG), by one OR-reduction over
        the arcs grouped by source node.
        """
        return np.logical_or.reduceat(
            rows[:, self._arcs_by_src], self._src_starts, axis=1
        )

    def _cone_columns(
        self,
        infos: "list[tuple]",
        spf_s: np.ndarray,
        spf_d: np.ndarray,
        dest: np.ndarray,
        base_cols: np.ndarray,
        base_masks: np.ndarray,
    ) -> np.ndarray:
        """``(N, C)`` repaired distance columns, one cone repair per cell.

        Cell ``i`` is scenario ``spf_s[i]`` (``infos`` holds its
        structures) towards destination row ``spf_d[i]``; a cell whose
        cone grows past the repair limit takes a fresh column from
        :meth:`_columns_for`, one call per scenario.
        """
        cols = np.empty((self._net.num_nodes, spf_s.size), dtype=np.float64)
        missing: dict[int, list[int]] = {}
        for i, (s, d) in enumerate(zip(spf_s.tolist(), spf_d.tolist())):
            failed, failed_set, _, dead_list = infos[s]
            repaired = self._repaired_column(
                base_cols[:, d], base_masks[d], failed, failed_set, dead_list
            )
            if repaired is None:
                missing.setdefault(s, []).append(i)
            else:
                cols[:, i] = repaired
        for s, idx in missing.items():
            cols[:, idx] = self._columns_for(
                dest[spf_d[idx]], infos[s][2], infos[s][3]
            )
        return cols

    def _group_structure(
        self,
        scenarios: "list[FailureScenario]",
        rows: "slice | np.ndarray" = slice(None),
    ) -> _GroupStructure:
        """Distances, masks and hit cells of a group of failures.

        The one failure-structure rule, for a batch group
        (:func:`repro.routing.sweep.route_scenario_batch`) and for
        :meth:`route_scenario`'s group of one alike.  Failed arcs leave
        every mask row; a destination is hit when a failed arc sat on
        its DAG; a hit destination keeps its distances unless a node
        that had DAG out-arcs has none left (checked per node for all
        hit cells at once, against the base flags :attr:`_base_out`).
        When at least two scenarios have such cells and the instance
        has at most :data:`~repro.routing.backend.CLOSURE_MAX_NODES`
        nodes, those columns come from one min-plus closure over the
        scenarios' stacked adjacency matrices (:func:`_closure_columns`),
        which amortizes its ``N`` numpy steps over the group; otherwise
        (a group of one, a large instance) from the cone repair
        (:meth:`_cone_columns`).  Both give the exact shortest distances
        on integer weights, so the choice never changes a bit.  The
        columns' mask rows come from one :func:`destination_mask_rows`
        call.

        Args:
            scenarios: the ``S`` failures.  Removed nodes are the
                caller's to handle: this rule sees only failed arcs.
            rows: the base destination rows to route (default all).
        """
        infos = [self._scenario_info_for(s) for s in scenarios]
        net = self._net
        num_scen, n = len(scenarios), net.num_nodes
        dest = self._dest[rows]
        base_masks = self._masks[rows]
        base_cols = self._dist_cols[:, rows]
        disabled = np.array(
            [info[2] for info in infos], dtype=bool
        ).reshape(num_scen, net.num_arcs)
        masks = base_masks[None, :, :] & ~disabled[:, None, :]
        hit = (base_masks[None, :, :] & disabled[:, None, :]).any(axis=2)
        dist = np.full((num_scen, n, n), np.inf)
        dist[:, :, dest] = base_cols
        hit_s, hit_d = np.nonzero(hit)
        if hit_s.size:
            # A node left without DAG out-arcs lengthens its distance.
            lost = ~self._has_dag_out(masks[hit_s, hit_d])
            # The base flags of the routed rows.  Under a node removal
            # (``rows`` a subset) the removed node loses every DAG
            # out-arc towards each remaining destination, so every hit
            # cell needs repair whichever row's flags are read here: no
            # test can see a misaligned row index, an equivalent mutant.
            lost &= self._base_out[rows][hit_d]
            need = lost.any(axis=1)
            spf_s, spf_d = hit_s[need], hit_d[need]
            if spf_s.size:
                repair_s = np.unique(spf_s)
                if repair_s.size >= 2 and n <= CLOSURE_MAX_NODES:
                    cols = _closure_columns(
                        net,
                        self._weights,
                        disabled[repair_s],
                        np.searchsorted(repair_s, spf_s),
                        dest[spf_d],
                    )
                else:
                    cols = self._cone_columns(
                        infos, spf_s, spf_d, dest, base_cols, base_masks
                    )
                dist[spf_s, :, dest[spf_d]] = cols.T
                masks[spf_s, spf_d] = destination_mask_rows(
                    net, self._weights, cols
                ) & ~disabled[spf_s]
        return _GroupStructure(dist=dist, masks=masks, hit=hit)
