"""SLA cost for delay-sensitive traffic (Eq. 2).

An SD pair whose end-to-end delay stays within the bound ``theta`` costs
nothing; beyond the bound it incurs a fixed penalty ``B1`` plus ``B2`` per
millisecond of excess — the threshold-shaped sensitivity of real-time
applications (VoIP quality collapses past a delay knee [7]).

Delays enter in seconds; the excess term is converted to milliseconds so
the paper's ``B1 = 100, B2 = 1`` magnitudes carry over directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import SlaParams

#: Seconds-to-milliseconds factor for the excess-delay term.
MS_PER_S = 1000.0


@dataclass(frozen=True)
class SlaOutcome:
    """Aggregate SLA accounting for one (scenario, weight setting).

    Attributes:
        cost: total penalty ``Lambda`` summed over SD pairs.
        violations: number of SD pairs over the bound (including
            disconnected pairs).
        disconnected: number of SD pairs with no path at all.
        pairs: number of SD pairs carrying delay-sensitive demand.
    """

    cost: float
    violations: int
    disconnected: int
    pairs: int

    @property
    def violation_fraction(self) -> float:
        """Violations relative to the pair population."""
        return self.violations / self.pairs if self.pairs else 0.0


def pair_sla_cost(
    delay_s: float, params: SlaParams = SlaParams()
) -> float:
    """Penalty of a single SD pair with the given end-to-end delay."""
    if not np.isfinite(delay_s):
        excess_ms = params.disconnect_excess_factor * params.theta * MS_PER_S
        return params.b1 + params.b2 * excess_ms
    if delay_s <= params.theta:
        return 0.0
    return params.b1 + params.b2 * (delay_s - params.theta) * MS_PER_S


def sla_outcome(
    delays: np.ndarray,
    demand: np.ndarray,
    params: SlaParams = SlaParams(),
) -> "SlaOutcome | list[SlaOutcome]":
    """Total SLA penalty over the SD pairs carrying delay demand.

    Args:
        delays: ``(N, N)`` end-to-end delay matrix in seconds (``inf``
            marks disconnection, ``nan`` marks non-routed entries), or a
            ``(K, N, N)`` stack of them.
        demand: ``(N, N)`` delay-class demand, shared by every matrix of
            a stack; pairs with zero demand are excluded from the SLA
            population.
        params: SLA constants.

    Returns:
        The aggregate :class:`SlaOutcome`; for a stack, one per matrix,
        each bit-identical to a one-matrix call: every row's penalties
        are compressed to a 1-D array before they are summed, so the
        summation order does not depend on the stack.
    """
    if delays.shape[-2:] != demand.shape or delays.ndim not in (2, 3):
        raise ValueError("delays and demand shapes must match")
    stacked = delays.ndim == 3
    mask = demand > 0.0
    pairs = int(mask.sum())
    # One row of demand-pair delays per matrix.
    pair_delays = delays[:, mask] if stacked else delays[mask][None]
    if np.any(np.isnan(pair_delays)):
        raise ValueError("demand-carrying pair has no routed delay")

    finite = np.isfinite(pair_delays)
    over = finite & (pair_delays > params.theta)
    # The violating pairs' penalties, row after row; each row's run is
    # summed as its own 1-D slice, in the order a one-matrix call sums.
    excess_ms = (pair_delays[over] - params.theta) * MS_PER_S
    penalties = params.b1 + params.b2 * excess_ms
    disconnect_excess_ms = (
        params.disconnect_excess_factor * params.theta * MS_PER_S
    )
    disconnect_cost = params.b1 + params.b2 * disconnect_excess_ms
    outcomes = []
    end = 0
    for num_over, num_finite in zip(
        over.sum(axis=1).tolist(), finite.sum(axis=1).tolist()
    ):
        start, end = end, end + num_over
        disconnected = pairs - num_finite
        cost = float(np.sum(penalties[start:end]))
        cost += float(disconnected) * disconnect_cost
        outcomes.append(
            SlaOutcome(
                cost=cost,
                violations=num_over + disconnected,
                disconnected=disconnected,
                pairs=pairs,
            )
        )
    return outcomes if stacked else outcomes[0]
