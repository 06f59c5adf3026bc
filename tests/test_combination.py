import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from apamix.combination import (
    CombinationState,
    lambda_of,
    mixing_step,
    update_a,
)

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)


class TestLambdaOf:
    def test_zero(self):
        assert lambda_of(0.0) == 0.5

    def test_at_clip_bound(self):
        # direct evaluation of 1/(1+e^-4)
        assert lambda_of(4.0) == pytest.approx(1.0 / (1.0 + math.exp(-4.0)), rel=1e-15)
        assert lambda_of(4.0) == pytest.approx(0.98201379, abs=1e-8)

    @given(st.floats(min_value=-50, max_value=50, allow_nan=False))
    def test_antisymmetry(self, a):
        assert lambda_of(-a) == pytest.approx(1.0 - lambda_of(a), abs=1e-12)


class TestUpdateA:
    def setup_method(self):
        self.state = CombinationState(a=1.0, a_plus=4.0, mu_a=100.0)

    def test_equal_outputs_no_move(self):
        assert update_a(self.state, e=0.5, y1=2.0, y2=2.0).a == self.state.a

    def test_zero_error_no_move(self):
        assert update_a(self.state, e=0.0, y1=2.0, y2=-1.0).a == self.state.a

    def test_clip_at_upper(self):
        state = CombinationState(a=4.0, a_plus=4.0, mu_a=100.0)
        out = update_a(state, e=1.0, y1=2.0, y2=0.0)  # positive increment
        assert out.a == 4.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            update_a(self.state, e=float("nan"), y1=0.0, y2=0.0)

    def test_direction_favors_better_filter(self):
        # when branch 1 has the much smaller a-priori error, the mean
        # increment of a is positive (mix drifts toward branch 1)
        rng = np.random.default_rng(0)
        state = CombinationState(a=0.0, a_plus=4.0, mu_a=1.0)
        incs = []
        for _ in range(4000):
            ea1 = 0.01 * rng.standard_normal()
            ea2 = 1.0 * rng.standard_normal()
            noise = 0.03 * rng.standard_normal()
            # y_l = d_clean - ea_l, e = lam*ea1 + (1-lam)*ea2 + noise
            d_clean = rng.standard_normal()
            y1, y2 = d_clean - ea1, d_clean - ea2
            e = state.lam * ea1 + (1 - state.lam) * ea2 + noise
            incs.append(update_a(state, e, y1, y2).a - state.a)
        assert np.mean(incs) > 0

    def test_lambda_stays_in_reachable_range(self):
        rng = np.random.default_rng(1)
        state = CombinationState(a=0.0, a_plus=4.0, mu_a=100.0)
        lo, hi = 1.0 - state.lam_plus, state.lam_plus
        for _ in range(20_000):
            e, y1, y2 = rng.standard_normal(3) * 10.0 ** rng.integers(-3, 3)
            state = update_a(state, float(e), float(y1), float(y2))
            assert lo <= state.lam <= hi

    def test_array_step_matches_update_a(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(-4.0, 4.0, 300)
        a[:2] = 4.0, -4.0
        e, y1, y2 = rng.standard_normal((3, 300))
        lam = lambda_of(a)
        out = mixing_step(a, lam, e, y1, y2, mu_a=100.0, a_plus=4.0)
        for k in range(a.size):
            state = CombinationState(a=float(a[k]), a_plus=4.0, mu_a=100.0)
            assert lam[k] == state.lam
            assert out[k] == update_a(state, float(e[k]), float(y1[k]), float(y2[k])).a
        # both clip bounds are hit, and some steps stay inside
        assert (out == 4.0).any() and (out == -4.0).any()
        assert (np.abs(out) < 4.0).any()

    @given(
        st.floats(min_value=-4, max_value=4),
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    )
    def test_a_always_clipped(self, a0, e, y1, y2):
        state = CombinationState(a=a0, a_plus=4.0, mu_a=100.0)
        out = update_a(state, e, y1, y2)
        assert -4.0 <= out.a <= 4.0
        assert out.lam == pytest.approx(lambda_of(out.a), abs=1e-15)
