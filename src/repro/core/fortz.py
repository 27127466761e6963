"""Fortz–Thorup congestion cost for throughput-sensitive traffic.

The paper reuses "the load-based cost function f(x_l) of [8]" — the
classic piecewise-linear, convex link cost whose slope escalates as
utilization crosses 1/3, 2/3, 9/10, 1 and 11/10.  The overall cost
``Phi`` sums ``f(x_l)`` over the links carrying throughput-sensitive
traffic, evaluated on the *total* load (classes share the queue).

Costs are expressed in "capacity-normalized" form: a slope of 1 means one
cost unit per unit of ``x_l / C_l``.  This keeps magnitudes comparable
across capacities and matches Fortz–Thorup's normalized plots.
"""

from __future__ import annotations

import numpy as np

#: Utilization breakpoints of the Fortz–Thorup link cost.
FORTZ_BREAKPOINTS: tuple[float, ...] = (0.0, 1 / 3, 2 / 3, 0.9, 1.0, 1.1)

#: Slopes on the successive segments (cost units per unit utilization).
FORTZ_SLOPES: tuple[float, ...] = (1.0, 3.0, 10.0, 70.0, 500.0, 5000.0)


def _segment_offsets() -> np.ndarray:
    """Cost value at each breakpoint, making the function continuous."""
    offsets = [0.0]
    for i in range(1, len(FORTZ_BREAKPOINTS)):
        span = FORTZ_BREAKPOINTS[i] - FORTZ_BREAKPOINTS[i - 1]
        offsets.append(offsets[-1] + FORTZ_SLOPES[i - 1] * span)
    return np.asarray(offsets)


_OFFSETS = _segment_offsets()
_BREAKS = np.asarray(FORTZ_BREAKPOINTS)
_SLOPES = np.asarray(FORTZ_SLOPES)


def fortz_link_cost(utilization: np.ndarray) -> np.ndarray:
    """Per-arc Fortz–Thorup cost ``f`` as a function of utilization.

    Piecewise linear, increasing and convex; vectorized over arcs.
    Negative utilizations are invalid.
    """
    rho = np.asarray(utilization, dtype=np.float64)
    if np.any(rho < 0):
        raise ValueError("utilization must be non-negative")
    seg = np.searchsorted(_BREAKS, rho, side="right") - 1
    seg = np.clip(seg, 0, len(_SLOPES) - 1)
    return _OFFSETS[seg] + _SLOPES[seg] * (rho - _BREAKS[seg])


def fortz_cost(
    total_loads: np.ndarray,
    capacity: np.ndarray,
    include: np.ndarray | None = None,
) -> "float | list[float]":
    """Network congestion cost ``Phi``.

    Args:
        total_loads: per-arc load ``x_l`` across both classes (bits/s),
            ``(A,)``, or a ``(K, A)`` stack of such rows.
        capacity: ``(A,)`` per-arc capacity (bits/s).
        include: optional boolean mask, shaped like ``total_loads``,
            restricting each sum to the links carrying
            throughput-sensitive traffic (the paper's set ``L``);
            default sums over all arcs.

    Returns:
        The scalar cost ``Phi``; for a stack, one per row, each
        bit-identical to a one-row call (every row's included costs are
        compressed to a 1-D array before they are summed).
    """
    loads = np.asarray(total_loads, dtype=np.float64)
    capacity = np.asarray(capacity, dtype=np.float64)
    if loads.shape[-1:] != capacity.shape or loads.ndim > 2:
        raise ValueError("loads and capacity shapes must match")
    per_arc = fortz_link_cost(loads / capacity)
    if include is not None:
        include = np.asarray(include, dtype=bool)
        if include.shape != loads.shape:
            raise ValueError("include and loads shapes must match")
    if loads.ndim == 1:
        return _row_cost(per_arc, include)
    return [
        _row_cost(row, None if include is None else include[k])
        for k, row in enumerate(per_arc)
    ]


def _row_cost(per_arc: np.ndarray, include: np.ndarray | None) -> float:
    """One row's ``Phi``: its included arc costs, summed as a 1-D array."""
    if include is not None:
        per_arc = per_arc[include]
    return float(per_arc.sum())


def uncongested_bound(
    total_loads: np.ndarray,
    capacity: np.ndarray,
    include: np.ndarray | None = None,
) -> float:
    """Slope-1 lower bound on ``Phi`` for the same loads.

    Useful as a normalization constant when plotting cost series: the
    bound is what ``Phi`` would be if every link stayed in the cheapest
    segment.
    """
    loads = np.asarray(total_loads, dtype=np.float64)
    rho = loads / np.asarray(capacity, dtype=np.float64)
    if include is not None:
        rho = rho[np.asarray(include, dtype=bool)]
    return float(rho.sum())
