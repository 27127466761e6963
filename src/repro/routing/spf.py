"""Shortest-path computations for one weighted topology.

Distances come from :func:`scipy.sparse.csgraph.dijkstra` on a CSR matrix
(C speed); equal-cost multipath structure is recovered with the standard
arc test: arc ``(u, v)`` lies on a shortest path towards destination ``t``
iff ``dist(u, t) == w(u, v) + dist(v, t)``.

Weights are integer-valued floats (OSPF-style), so the sums involved are
exact in float64; a small tolerance is still applied for robustness.
"""

from __future__ import annotations

import heapq
import weakref
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.routing.fastpath import PropagationPlan, fast_path_counts
from repro.routing.network import Network

#: Tolerance used when testing membership in the shortest-path DAG.
SPF_TOLERANCE = 1e-9


def _validate_weights(network: Network, weights: np.ndarray) -> None:
    if weights.shape != (network.num_arcs,):
        raise ValueError("weights must have one entry per arc")
    if np.any(weights < 1):
        raise ValueError("arc weights must be >= 1")


@dataclass(frozen=True)
class _CsrView:
    """One cached CSR layout (structure only; data is per-call weights).

    Attributes:
        perm: arc-id permutation into CSR data order.
        indices: column indices, aligned with ``perm``.
        indptr: row pointer.
    """

    perm: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray

    def graph(
        self,
        n: int,
        weights: np.ndarray,
        disabled: np.ndarray | None,
    ) -> csr_matrix:
        """The CSR graph under ``weights`` (dead arcs weighted ``inf``).

        An infinite-weight arc is exactly equivalent to a removed one
        for Dijkstra — relaxations through it produce ``inf``, the same
        "unreachable" representation — so the per-call work is one
        gather instead of a COO build.
        """
        data = weights[self.perm]  # fancy indexing: always a fresh array
        if disabled is not None:
            data[disabled[self.perm]] = np.inf
        return csr_matrix(
            (data, self.indices, self.indptr), shape=(n, n)
        )


#: Per-network forward/reverse CSR layouts.  Weak keys: entries die with
#: their network, and identity-keying is safe because networks are
#: immutable.  Sweep loops build thousands of graphs per topology; the
#: structural sort is hoisted out here and only the data gather remains
#: per call.
_CSR_VIEWS: "weakref.WeakKeyDictionary[Network, tuple[_CsrView, _CsrView]]" = (
    weakref.WeakKeyDictionary()
)


def csr_views(network: Network) -> tuple[_CsrView, _CsrView]:
    """The cached ``(forward, reverse)`` CSR layouts of a network.

    Sorted by ``(row, col)``, matching what scipy's COO-to-CSR
    conversion produces, so graphs built from these views are
    bit-identical to per-call construction.
    """
    cached = _CSR_VIEWS.get(network)
    if cached is None:
        src, dst = network.arc_src, network.arc_dst
        n = network.num_nodes
        fwd_perm = np.lexsort((dst, src))
        rev_perm = np.lexsort((src, dst))
        fwd = _CsrView(
            perm=fwd_perm,
            indices=dst[fwd_perm].astype(np.int32, copy=False),
            indptr=np.concatenate(
                ([0], np.cumsum(np.bincount(src, minlength=n)))
            ).astype(np.int32, copy=False),
        )
        rev = _CsrView(
            perm=rev_perm,
            indices=src[rev_perm].astype(np.int32, copy=False),
            indptr=np.concatenate(
                ([0], np.cumsum(np.bincount(dst, minlength=n)))
            ).astype(np.int32, copy=False),
        )
        cached = (fwd, rev)
        _CSR_VIEWS[network] = cached
    return cached


def distance_matrix(
    network: Network,
    weights: np.ndarray,
    disabled: np.ndarray | None = None,
    destinations: np.ndarray | None = None,
    validate: bool = True,
) -> np.ndarray:
    """Shortest-path distances under the given arc weights.

    Args:
        network: the topology.
        weights: per-arc weights, shape ``(num_arcs,)``, all >= 1.
        disabled: optional boolean per-arc mask of dead arcs.
        destinations: optional node ids; when given, only the distance
            *columns* towards these nodes are computed (via Dijkstra on
            the reversed graph) and every other column is ``inf``.  This
            is the routing hot path: the engine only ever consumes the
            demand-carrying columns.
        validate: skip the weight checks when False (hot loops validate
            once per setting instead of once per call).

    Returns:
        ``(N, N)`` float array ``dist`` with ``dist[s, t]`` the length of
        the shortest ``s -> t`` path, ``inf`` when unreachable, 0 on the
        diagonal (computed columns only when ``destinations`` is given).
    """
    weights = np.asarray(weights, dtype=np.float64)
    if validate:
        _validate_weights(network, weights)
    n = network.num_nodes
    if destinations is not None:
        out = np.full((n, n), np.inf)
        destinations = np.asarray(destinations, dtype=np.intp)
        if destinations.size:
            out[:, destinations] = distance_columns(
                network, weights, destinations, disabled
            )
        return out
    forward, _ = csr_views(network)
    return dijkstra(forward.graph(n, weights, disabled), directed=True)


#: Below this many requested columns a pure-Python heap Dijkstra beats
#: scipy (whose CSR construction + call overhead — several hundred
#: microseconds — dominates small runs at backbone scale).
_PY_DIJKSTRA_MAX_COLS = 12


def distance_columns(
    network: Network,
    weights: np.ndarray,
    destinations: np.ndarray,
    disabled: np.ndarray | None = None,
    backend: str = "auto",
) -> np.ndarray:
    """Distance columns ``dist[:, t]`` for the given destinations only.

    Dijkstra runs on the *reversed* graph from each destination:
    distances from ``t`` in the reversed graph are exactly distances *to*
    ``t`` in the forward graph.  Two implementations exist — scipy's C
    Dijkstra over the cached reverse CSR view (one data gather per call,
    no COO build; the whole batch in one call) and an in-process
    pure-Python heap Dijkstra per destination that skips scipy's call
    overhead.  ``backend`` selects: ``"python"`` always runs the heap
    loop, ``"vector"`` always runs batched scipy, and ``"auto"``
    (default) picks by batch size — the heap loop below
    :data:`_PY_DIJKSTRA_MAX_COLS` columns (the incremental router's
    common case, where scipy's per-call overhead dominates), scipy
    above.  The heap path is weight-dtype-agnostic: for integer-valued
    weights every path sum is exact in float64 and the columns are
    bit-identical whichever implementation ran; for float weights the
    implementations agree to within :data:`SPF_TOLERANCE` (the margin
    every DAG-membership test applies).

    Returns:
        ``(N, len(destinations))`` float array, column ``i`` holding the
        per-source distances towards ``destinations[i]``.
    """
    n = network.num_nodes
    destinations = np.asarray(destinations, dtype=np.intp)
    if destinations.size == 0:
        return np.empty((n, 0), dtype=np.float64)
    if backend == "python" or (
        backend == "auto" and destinations.size <= _PY_DIJKSTRA_MAX_COLS
    ):
        out = np.empty((n, destinations.size), dtype=np.float64)
        dead = (
            np.asarray(disabled, dtype=bool).tolist()
            if disabled is not None
            else None
        )
        weight_list = weights.tolist()
        arc_src = network.arc_src.tolist()
        in_arcs = _reverse_adjacency(network)
        for i, t in enumerate(destinations):
            out[:, i] = _dijkstra_to(
                n, in_arcs, arc_src, weight_list, dead, int(t)
            )
        return out
    _, reverse = csr_views(network)
    from_t = dijkstra(
        reverse.graph(n, weights, disabled),
        directed=True,
        indices=destinations,
    )
    return np.ascontiguousarray(from_t.T)


#: Per-network reverse adjacency (incoming arc ids as plain lists).
#: Weak keys: entries die with their network, and identity-keying is safe
#: because networks are immutable.
_REVERSE_ADJACENCY: "weakref.WeakKeyDictionary[Network, list[list[int]]]" = (
    weakref.WeakKeyDictionary()
)


def _reverse_adjacency(network: Network) -> list[list[int]]:
    cached = _REVERSE_ADJACENCY.get(network)
    if cached is None:
        cached = [[int(a) for a in arcs] for arcs in network.in_arcs]
        _REVERSE_ADJACENCY[network] = cached
    return cached


def _dijkstra_to(
    n: int,
    in_arcs: list[list[int]],
    arc_src: list[int],
    weights: list[float],
    dead: "list[bool] | None",
    t: int,
) -> list[float]:
    """Single-destination heap Dijkstra over the reversed adjacency."""
    dist = [float("inf")] * n
    dist[t] = 0.0
    heap = [(0.0, t)]
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        d, v = pop(heap)
        if d > dist[v]:
            continue
        for a in in_arcs[v]:
            if dead is not None and dead[a]:
                continue
            u = arc_src[a]
            candidate = d + weights[a]
            if candidate < dist[u]:
                dist[u] = candidate
                push(heap, (candidate, u))
    return dist


def shortest_arc_mask(
    network: Network,
    weights: np.ndarray,
    dist_to_t: np.ndarray,
    disabled: np.ndarray | None = None,
) -> np.ndarray:
    """Which arcs belong to the shortest-path DAG towards one destination.

    Args:
        network: the topology.
        weights: per-arc weights.
        dist_to_t: distances to the destination, i.e. ``dist[:, t]``.
        disabled: optional boolean per-arc mask of dead arcs.

    Returns:
        Boolean per-arc mask; ``mask[a]`` is True iff arc ``a = (u, v)``
        satisfies ``dist_to_t[u] == w[a] + dist_to_t[v]`` with both
        distances finite (and the arc alive).
    """
    du = dist_to_t[network.arc_src]
    dv = dist_to_t[network.arc_dst]
    with np.errstate(invalid="ignore"):
        on_dag = np.abs(du - (weights + dv)) <= SPF_TOLERANCE
    on_dag &= np.isfinite(du) & np.isfinite(dv)
    if disabled is not None:
        on_dag &= ~disabled
    return on_dag


def path_counts(
    network: Network,
    mask: np.ndarray,
    dist_to_t: np.ndarray,
    t: int,
    plan: "PropagationPlan | None" = None,
) -> np.ndarray:
    """Number of distinct shortest paths from each node to ``t``.

    A path-diversity diagnostic (the paper repeatedly attributes the
    benefit of robust optimization to path diversity).  Counts are
    computed by dynamic programming over the shortest-path DAG in
    increasing distance order, through the pure-Python fast-path kernel
    (the numpy reference lives in :func:`repro.routing.loader.
    path_counts_reference` and is pinned equal by tests).  Pass a
    prebuilt ``plan`` when calling repeatedly for one network.
    """
    if plan is None:
        plan = PropagationPlan.for_network(network)
    return np.asarray(
        fast_path_counts(plan, mask, dist_to_t, t), dtype=np.float64
    )
