"""Tests for the link-delay model (Eq. 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DelayModelParams
from repro.core.delay import arc_delays, mm1_term, queueing_delay_at


class TestMm1Term:
    def test_matches_hyperbolic_below_linearization(self):
        rho = np.asarray([0.1, 0.5, 0.9])
        out = mm1_term(rho, 0.99)
        np.testing.assert_allclose(out, rho / (1 - rho))

    def test_tangent_beyond_linearization(self):
        out = mm1_term(np.asarray([0.99, 1.0, 1.1]), 0.99)
        g99 = 0.99 / 0.01
        slope = 1.0 / 0.01**2
        np.testing.assert_allclose(
            out, [g99, g99 + slope * 0.01, g99 + slope * 0.11]
        )

    def test_continuous_at_linearization(self):
        eps = 1e-9
        below = mm1_term(np.asarray([0.99 - eps]), 0.99)[0]
        above = mm1_term(np.asarray([0.99 + eps]), 0.99)[0]
        assert above == pytest.approx(below, rel=1e-4)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.0, 2.0))
    def test_monotone_nondecreasing(self, rho):
        a = mm1_term(np.asarray([rho]), 0.99)[0]
        b = mm1_term(np.asarray([rho + 0.01]), 0.99)[0]
        assert b >= a


class TestArcDelays:
    def test_propagation_only_below_threshold(self):
        params = DelayModelParams()
        loads = np.asarray([0.5e8, 4.7e8])  # 10% and 94% of 500 Mbps
        cap = np.full(2, 5e8)
        prop = np.asarray([0.005, 0.010])
        delays = arc_delays(loads, cap, prop, params)
        np.testing.assert_allclose(delays, prop)

    def test_queueing_added_above_threshold(self):
        params = DelayModelParams()
        loads = np.asarray([4.8e8])  # 96%
        cap = np.asarray([5e8])
        prop = np.asarray([0.005])
        delays = arc_delays(loads, cap, prop, params)
        assert delays[0] > 0.005

    def test_paper_sanity_95_percent_under_half_ms(self):
        """Section V-A3: 95% load on 500 Mbps ~ queueing < 0.5 ms."""
        q = queueing_delay_at(0.951, 5e8)
        assert 0 < q < 0.5e-3

    def test_queueing_zero_below_threshold(self):
        assert queueing_delay_at(0.90, 5e8) == 0.0

    def test_overload_is_finite(self):
        params = DelayModelParams()
        delays = arc_delays(
            np.asarray([6e8]), np.asarray([5e8]), np.asarray([0.005]), params
        )
        assert np.isfinite(delays[0])
        assert delays[0] > 0.02  # heavily congested

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes"):
            arc_delays(np.ones(3), np.ones(2), np.ones(3))

    def test_stack_equals_row_by_row_calls(self):
        """An (S, A) stack of loads gives each row's 1-D delays bit for
        bit — one call prices a whole scenario group."""
        rng = np.random.default_rng(0)
        cap = rng.uniform(1e8, 1e9, 12)
        prop = rng.uniform(0.001, 0.01, 12)
        # Utilizations on both sides of the threshold and of the
        # linearization point.
        loads = cap * rng.uniform(0.0, 1.3, (7, 12))
        stacked = arc_delays(loads, cap, prop)
        assert stacked.shape == (7, 12)
        for row, delays in zip(loads, stacked):
            assert np.array_equal(delays, arc_delays(row, cap, prop))

    def test_stack_with_mismatched_arc_count_rejected(self):
        with pytest.raises(ValueError, match="shapes"):
            arc_delays(np.ones((4, 3)), np.ones(2), np.ones(2))

    @settings(max_examples=40, deadline=None)
    @given(
        util=st.floats(0.0, 1.5),
        extra=st.floats(0.001, 0.2),
    )
    def test_monotone_in_load(self, util, extra):
        cap = np.asarray([5e8])
        prop = np.asarray([0.005])
        lo = arc_delays(np.asarray([util * 5e8]), cap, prop)[0]
        hi = arc_delays(np.asarray([(util + extra) * 5e8]), cap, prop)[0]
        assert hi >= lo


class TestDelayParamsValidation:
    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError):
            DelayModelParams(
                low_load_threshold=0.995, linearization_utilization=0.99
            )

    def test_linearization_below_one(self):
        with pytest.raises(ValueError):
            DelayModelParams(linearization_utilization=1.0)

    def test_positive_packet_size(self):
        with pytest.raises(ValueError):
            DelayModelParams(packet_size_bits=0)
