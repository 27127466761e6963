"""Tests for weight settings and perturbation moves."""

import numpy as np
import pytest

from repro.config import WeightParams
from repro.core.perturbation import (
    random_pair_move,
    random_phase2_move,
    random_single_class_move,
    scramble_some_arcs,
)
from repro.core.weights import WeightSetting


@pytest.fixture
def params() -> WeightParams:
    return WeightParams(w_min=1, w_max=20, q=0.7)


class TestWeightSetting:
    def test_uniform(self):
        ws = WeightSetting.uniform(5, 3)
        assert np.all(ws.delay == 3)
        assert np.all(ws.tput == 3)

    def test_random_within_bounds(self, params, rng):
        ws = WeightSetting.random(100, params, rng)
        assert ws.delay.min() >= 1 and ws.delay.max() <= 20
        assert ws.tput.min() >= 1 and ws.tput.max() <= 20

    def test_copy_is_independent(self, params, rng):
        ws = WeightSetting.random(10, params, rng)
        cp = ws.copy()
        cp.set_arc(0, 7, 9)
        assert ws.arc_pair(0) != (7, 9) or (7, 9) == ws.arc_pair(0)
        assert not np.shares_memory(ws.delay, cp.delay)

    def test_set_arc(self, params, rng):
        ws = WeightSetting.random(10, params, rng)
        ws.set_arc(3, 5, 6)
        assert ws.arc_pair(3) == (5, 6)

    def test_set_arc_validates(self):
        ws = WeightSetting.uniform(4)
        with pytest.raises(ValueError):
            ws.set_arc(0, 0, 5)

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            WeightSetting(np.zeros(3, dtype=int), np.ones(3, dtype=int))

    def test_emulates_failure(self, params):
        ws = WeightSetting.uniform(4)
        assert not ws.emulates_failure(0, params)
        ws.set_arc(0, 14, 20)  # floor = ceil(0.7*20) = 14
        assert ws.emulates_failure(0, params)
        ws.set_arc(0, 13, 20)
        assert not ws.emulates_failure(0, params)

    def test_fail_arc_weights(self, params, rng):
        ws = WeightSetting.uniform(4)
        ws.fail_arc_weights(2, params, rng)
        assert ws.emulates_failure(2, params)

    def test_key_and_equality(self, params, rng):
        ws = WeightSetting.random(8, params, rng)
        assert ws == ws.copy()
        assert ws.key() == ws.copy().key()
        other = ws.copy()
        other.set_arc(0, (ws.arc_pair(0)[0] % 20) + 1, ws.arc_pair(0)[1])
        assert ws.key() != other.key()


class TestMoves:
    def test_pair_move_apply_revert(self, params, rng):
        ws = WeightSetting.uniform(6, 5)
        move = random_pair_move(ws, 2, params, rng)
        move.apply(ws)
        assert ws.arc_pair(2) == (move.new_delay, move.new_tput)
        move.revert(ws)
        assert ws.arc_pair(2) == (5, 5)

    def test_single_class_move_changes_one_class(self, params, rng):
        ws = WeightSetting.uniform(6, 5)
        move = random_single_class_move(ws, 1, params, rng)
        changed = (move.new_delay != 5) + (move.new_tput != 5)
        assert changed <= 1

    def test_phase2_move_within_bounds(self, params, rng):
        ws = WeightSetting.uniform(6, 5)
        for _ in range(50):
            move = random_phase2_move(ws, 0, params, rng)
            assert 1 <= move.new_delay <= 20
            assert 1 <= move.new_tput <= 20

    def test_changes_anything_flag(self, params):
        ws = WeightSetting.uniform(4, 7)
        from repro.core.perturbation import Move

        noop = Move(0, 7, 7, 7, 7)
        assert not noop.changes_anything
        real = Move(0, 8, 7, 7, 7)
        assert real.changes_anything

    def test_scramble_some_arcs(self, params, rng):
        ws = WeightSetting.uniform(20, 5)
        scrambled = scramble_some_arcs(ws, params, rng, fraction=0.25)
        # original untouched
        assert np.all(ws.delay == 5)
        differences = int(
            (scrambled.delay != 5).sum() + (scrambled.tput != 5).sum()
        )
        assert differences >= 1

    def test_scramble_fraction_validated(self, params, rng):
        ws = WeightSetting.uniform(4)
        with pytest.raises(ValueError):
            scramble_some_arcs(ws, params, rng, fraction=1.5)


class TestDrawsIgnoreOutcomes:
    """Within one sweep, move draws do not depend on the setting: each
    move kind consumes a fixed number of draws (2 for a pair move, 3
    for a Phase-2 move), so a sweep's draws are the same whichever
    earlier moves were kept."""

    @pytest.mark.parametrize("draw", [random_pair_move, random_phase2_move])
    def test_one_sweep_draws_alike_from_different_settings(
        self, draw, params
    ):
        num_arcs = 60
        a = WeightSetting.random(num_arcs, params, np.random.default_rng(0))
        # b differs from a in every weight of every arc.
        b = WeightSetting(
            a.delay % params.w_max + 1, a.tput % params.w_max + 1
        )
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        sweep = rng_a.permutation(num_arcs)
        assert np.array_equal(sweep, rng_b.permutation(num_arcs))
        chosen_kinds = set()
        for arc in sweep.tolist():
            move_a = draw(a, arc, params, rng_a)
            move_b = draw(b, arc, params, rng_b)
            assert rng_a.bit_generator.state == rng_b.bit_generator.state
            # A drawn weight is equal in both moves; a kept one differs.
            chosen = frozenset(
                name
                for name in ("delay", "tput")
                if getattr(move_a, f"new_{name}")
                == getattr(move_b, f"new_{name}")
            )
            assert chosen
            chosen_kinds.add(chosen)
        if draw is random_pair_move:
            assert chosen_kinds == {frozenset({"delay", "tput"})}
        else:
            assert len(chosen_kinds) == 3  # delay, tput and both
