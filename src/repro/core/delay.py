"""Link delay model of Eq. (1).

Below the utilization threshold ``mu`` a link contributes only its
propagation delay (backbone queueing is negligible at low load, per [20]);
above it, an M/M/1 approximation of the average queueing delay is added:

    D_l = kappa / C_l * (x_l / (C_l - x_l) + 1) + p_l

The hyperbolic term is replaced by its tangent line beyond utilization
0.99 (paper footnote 3) so costs stay finite and continuous as
``x_l -> C_l`` and beyond (which transient failure re-routing can cause).
"""

from __future__ import annotations

import numpy as np

from repro.config import DelayModelParams


def mm1_term(utilization: np.ndarray, linearization: float) -> np.ndarray:
    """The ``rho / (1 - rho)`` factor with tangent-line continuation.

    Args:
        utilization: per-arc utilization ``rho`` (may exceed 1).
        linearization: utilization beyond which the tangent applies.

    Returns:
        ``rho / (1 - rho)`` for ``rho < linearization``; the first-order
        Taylor continuation ``g(c) + g'(c) (rho - c)`` beyond it, where
        ``c = linearization``.
    """
    rho = np.asarray(utilization, dtype=np.float64)
    c = linearization
    g_c = c / (1.0 - c)
    slope = 1.0 / (1.0 - c) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        hyperbolic = rho / (1.0 - rho)
    return np.where(rho < c, hyperbolic, g_c + slope * (rho - c))


def arc_delays(
    total_loads: np.ndarray,
    capacity: np.ndarray,
    prop_delay: np.ndarray,
    params: DelayModelParams = DelayModelParams(),
) -> np.ndarray:
    """Per-arc delay ``D_l`` (seconds) under the given total loads.

    Args:
        total_loads: per-arc load ``x_l`` across both classes (bits/s),
            or an ``(S, A)`` stack of them, one row per scenario.  Every
            operation is elementwise, so each row's delays equal a
            one-row call's bit for bit.
        capacity: per-arc capacity ``C_l`` (bits/s).
        prop_delay: per-arc propagation delay ``p_l`` (seconds).
        params: delay-model constants (packet size, thresholds).

    Returns:
        Per-arc delays, shaped like ``total_loads``; equal to
        ``prop_delay`` wherever utilization is at most
        ``params.low_load_threshold``.
    """
    loads = np.asarray(total_loads, dtype=np.float64)
    capacity = np.asarray(capacity, dtype=np.float64)
    prop_delay = np.asarray(prop_delay, dtype=np.float64)
    if (
        capacity.ndim != 1
        or prop_delay.shape != capacity.shape
        or loads.ndim not in (1, 2)
        or loads.shape[-1] != capacity.shape[0]
    ):
        raise ValueError("loads, capacity and prop_delay shapes must match")
    utilization = loads / capacity
    queueing = (params.packet_size_bits / capacity) * (
        mm1_term(utilization, params.linearization_utilization) + 1.0
    )
    return np.where(
        utilization <= params.low_load_threshold,
        prop_delay,
        prop_delay + queueing,
    )


def queueing_delay_at(
    utilization: float,
    capacity: float,
    params: DelayModelParams = DelayModelParams(),
) -> float:
    """Queueing delay (seconds) a single link adds at a given utilization.

    Convenience scalar used in documentation and tests; e.g. at 95 % load
    on a 500 Mbps link with 1500-byte packets this is just under 0.5 ms,
    matching the paper's Section V-A3 sanity check.
    """
    if utilization <= params.low_load_threshold:
        return 0.0
    term = float(
        mm1_term(
            np.asarray([utilization]), params.linearization_utilization
        )[0]
    )
    return (params.packet_size_bits / capacity) * (term + 1.0)
