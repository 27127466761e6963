"""Weight-perturbation moves for the local searches of Phases 1 and 2.

Phase 1 follows the paper: "both weights (one for each traffic class) on
each link are randomly perturbed".  Phase 2 additionally uses finer moves
that change a single class's weight on an arc, which helps it fine-tune
around the constraint surface of Eqs. (5)-(6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import WeightParams
from repro.core.weights import WeightSetting


@dataclass(frozen=True)
class Move:
    """One reversible weight change on a single arc.

    The local searches apply moves only through a trial
    (:meth:`~repro.core.evaluation.DtrEvaluator.trial`).

    Attributes:
        arc: the arc whose weights change.
        new_delay: new delay-class weight.
        new_tput: new throughput-class weight.
        old_delay: previous delay-class weight (for revert).
        old_tput: previous throughput-class weight (for revert).
    """

    arc: int
    new_delay: int
    new_tput: int
    old_delay: int
    old_tput: int

    def apply(self, setting: WeightSetting) -> None:
        """Apply the move in place."""
        setting.set_arc(self.arc, self.new_delay, self.new_tput)

    def revert(self, setting: WeightSetting) -> None:
        """Undo the move in place."""
        setting.set_arc(self.arc, self.old_delay, self.old_tput)

    @property
    def changes_anything(self) -> bool:
        """Whether the move differs from the current weights."""
        return (
            self.new_delay != self.old_delay
            or self.new_tput != self.old_tput
        )


def random_pair_move(
    setting: WeightSetting,
    arc: int,
    params: WeightParams,
    rng: np.random.Generator,
) -> Move:
    """Phase-1 move: redraw both class weights of an arc uniformly."""
    old_delay, old_tput = setting.arc_pair(arc)
    return Move(
        arc=arc,
        new_delay=int(rng.integers(params.w_min, params.w_max + 1)),
        new_tput=int(rng.integers(params.w_min, params.w_max + 1)),
        old_delay=old_delay,
        old_tput=old_tput,
    )


def random_single_class_move(
    setting: WeightSetting,
    arc: int,
    params: WeightParams,
    rng: np.random.Generator,
) -> Move:
    """Phase-2 move: redraw the weight of one randomly chosen class."""
    old_delay, old_tput = setting.arc_pair(arc)
    new_weight = int(rng.integers(params.w_min, params.w_max + 1))
    if rng.integers(0, 2) == 0:
        return Move(arc, new_weight, old_tput, old_delay, old_tput)
    return Move(arc, old_delay, new_weight, old_delay, old_tput)


def random_phase2_move(
    setting: WeightSetting,
    arc: int,
    params: WeightParams,
    rng: np.random.Generator,
) -> Move:
    """Phase-2 move mix: mostly single-class, sometimes both."""
    if rng.random() < 0.25:
        return random_pair_move(setting, arc, params, rng)
    return random_single_class_move(setting, arc, params, rng)


def scramble_some_arcs(
    setting: WeightSetting,
    params: WeightParams,
    rng: np.random.Generator,
    fraction: float = 0.05,
) -> WeightSetting:
    """A copy of ``setting`` with a few arcs' weights redrawn.

    Phase-2 diversifications restart "close to" an acceptable setting;
    this produces such a nearby setting.
    """
    if not 0 <= fraction <= 1:
        raise ValueError("fraction must lie in [0, 1]")
    result = setting.copy()
    count = max(1, round(fraction * setting.num_arcs))
    for arc in rng.choice(setting.num_arcs, size=count, replace=False):
        random_pair_move(result, int(arc), params, rng).apply(result)
    return result
