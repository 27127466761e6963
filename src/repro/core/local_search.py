"""Shared local-search scaffolding for Phases 1 and 2.

Both phases run the same outer scheme: sweep random arcs, accept
improving weight perturbations, diversify (restart) after an interval of
non-improving iterations, and stop once enough consecutive
diversification rounds fail to improve the global best by the relative
cutoff ``c`` (Section IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.lexicographic import CostPair
from repro.core.weights import WeightSetting


@dataclass
class SearchStats:
    """Bookkeeping counters of one search run.

    Attributes:
        iterations: arc sweeps performed.
        evaluations: candidate cost evaluations (constraint checks count).
        accepted_moves: moves that improved the current cost.
        diversifications: restart rounds completed.
        samples_recorded: failure-like cost samples recorded (Phase 1).
        pruned_evaluations: failure evaluations cut short by the
            lexicographic bound (Phase 2).
        verbatim_evaluations: scenario evaluations of Phase-2
            candidates that took the incumbent's cost verbatim, since
            the move provably changed neither class routing (each is
            counted in ``evaluations`` too).
    """

    iterations: int = 0
    evaluations: int = 0
    accepted_moves: int = 0
    diversifications: int = 0
    samples_recorded: int = 0
    pruned_evaluations: int = 0
    verbatim_evaluations: int = 0


class DiversificationController:
    """Implements the paper's stop rule.

    A diversification round ends after ``interval`` consecutive
    non-improving iterations.  The search stops once ``min_rounds``
    consecutive completed rounds each improved the global best by less
    than ``cutoff`` (relative, on the dominant cost component).

    A round is also forcibly ended after ``interval * cap_factor``
    iterations even if tiny improvements keep arriving — without the cap,
    landscapes with long gentle Phi slopes would never let a round end.

    Args:
        interval: non-improving iterations per round.
        min_rounds: the paper's ``P1`` / ``P2``.
        cutoff: the relative improvement threshold ``c``.
        cap_factor: round-length cap as a multiple of ``interval``.
    """

    def __init__(
        self,
        interval: int,
        min_rounds: int,
        cutoff: float,
        cap_factor: int = 10,
    ) -> None:
        if interval < 1 or min_rounds < 1 or cap_factor < 1:
            raise ValueError("interval, min_rounds, cap_factor must be >= 1")
        if cutoff < 0:
            raise ValueError("cutoff must be non-negative")
        self._interval = interval
        self._min_rounds = min_rounds
        self._cutoff = cutoff
        self._round_cap = interval * cap_factor
        self._no_improve = 0
        self._round_iterations = 0
        self._quiet_rounds = 0
        self._rounds = 0

    # ------------------------------------------------------------------
    @property
    def rounds(self) -> int:
        """Completed diversification rounds."""
        return self._rounds

    def note_iteration(self, improved: bool) -> bool:
        """Record one iteration; True when it is time to diversify."""
        self._round_iterations += 1
        if self._round_iterations >= self._round_cap:
            return True
        if improved:
            self._no_improve = 0
            return False
        self._no_improve += 1
        return self._no_improve >= self._interval

    def note_diversification(self, round_improvement: float) -> None:
        """Record a completed round and its relative best-cost improvement."""
        self._rounds += 1
        self._no_improve = 0
        self._round_iterations = 0
        if round_improvement < self._cutoff:
            self._quiet_rounds += 1
        else:
            self._quiet_rounds = 0

    def should_stop(self) -> bool:
        """Whether ``min_rounds`` consecutive quiet rounds have occurred."""
        return self._quiet_rounds >= self._min_rounds


@dataclass(frozen=True)
class RecordedSetting:
    """An acceptable weight setting kept as a Phase-2 starting point.

    Attributes:
        setting: the weight setting (private copy).
        cost: its failure-free cost ``K_normal``.
    """

    setting: WeightSetting
    cost: CostPair


class AcceptablePool:
    """Weight settings satisfying Eqs. (5)-(6) relative to the best cost.

    The pool keeps up to ``capacity`` settings whose normal-scenario cost
    has the same Lambda as the best found so far and a Phi within
    ``(1 + chi)`` of the best Phi.  When the best improves, entries that
    no longer qualify are evicted.

    Args:
        chi: the throughput slack of Eq. (6).
        capacity: maximum number of retained settings.
    """

    def __init__(self, chi: float, capacity: int) -> None:
        if chi < 0:
            raise ValueError("chi must be non-negative")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._chi = chi
        self._capacity = capacity
        self._entries: list[RecordedSetting] = []
        self._keys: set[tuple[bytes, bytes]] = set()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def qualifies(self, cost: CostPair, best: CostPair) -> bool:
        """Eq. (5)-(6) test of a normal-scenario cost against the best."""
        same_lam = CostPair(cost.lam, 0.0).lam_equals(CostPair(best.lam, 0.0))
        return same_lam and cost.phi <= (1.0 + self._chi) * best.phi

    def offer(
        self, setting: WeightSetting, cost: CostPair, best: CostPair
    ) -> bool:
        """Store a copy of ``setting`` if it qualifies; True if stored."""
        if not self.qualifies(cost, best):
            return False
        key = setting.key()
        if key in self._keys:
            return False
        self._entries.append(RecordedSetting(setting.copy(), cost))
        self._keys.add(key)
        self._entries.sort(key=lambda r: (r.cost.lam, r.cost.phi))
        if len(self._entries) > self._capacity:
            evicted = self._entries.pop()
            self._keys.discard(evicted.setting.key())
        return True

    def rebase(self, best: CostPair) -> None:
        """Evict entries that stopped qualifying after a new best cost."""
        kept = [r for r in self._entries if self.qualifies(r.cost, best)]
        self._entries = kept
        self._keys = {r.setting.key() for r in kept}

    def best_first(self) -> list[RecordedSetting]:
        """Entries ordered best-cost-first."""
        return list(self._entries)

    def is_empty(self) -> bool:
        """Whether the pool holds no setting."""
        return not self._entries
