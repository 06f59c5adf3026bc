import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from apamix.combination import A_PLUS, MU_A, lambda_of, mixing_step, update_a

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)


class TestMixingSettings:
    # lambda lies in [1 - lam, lam] for lam = lambda_of(A_PLUS): were lam to
    # round to 0.5, lambda could not move; at 1, the mixing step is exactly 0

    def test_mu_a_is_positive_and_finite(self):
        assert 0 < MU_A < math.inf

    def test_a_plus_is_positive_and_finite(self):
        assert 0 < A_PLUS < math.inf

    def test_lambda_at_the_clip_stays_below_one(self):
        assert lambda_of(A_PLUS) < 1
        assert lambda_of(-A_PLUS) > 0

    def test_lambda_at_the_clip_stays_above_one_half(self):
        assert lambda_of(A_PLUS) > 0.5
        assert lambda_of(-A_PLUS) < 0.5


class TestLambdaOf:
    def test_zero(self):
        assert lambda_of(0.0) == 0.5

    def test_at_clip_bound(self):
        # direct evaluation of 1/(1+e^-4)
        assert lambda_of(4.0) == pytest.approx(1.0 / (1.0 + math.exp(-4.0)), rel=1e-15)
        assert lambda_of(4.0) == pytest.approx(0.98201379, abs=1e-8)

    def test_rounds_to_its_limits_only_outside_the_usable_clips(self):
        # a clip a_plus is usable only where 0.5 < lambda_of(a_plus) < 1
        for a_plus in (1e-9, 36.0):
            assert 0.5 < lambda_of(a_plus) < 1
        assert lambda_of(1e-17) == 0.5
        assert lambda_of(40.0) == 1.0

    @given(st.floats(min_value=-50, max_value=50, allow_nan=False))
    def test_antisymmetry(self, a):
        assert lambda_of(-a) == pytest.approx(1.0 - lambda_of(a), abs=1e-12)


class TestUpdateA:
    def test_equal_outputs_no_move(self):
        assert update_a(1.0, e=0.5, y1=2.0, y2=2.0) == 1.0

    def test_zero_error_no_move(self):
        assert update_a(1.0, e=0.0, y1=2.0, y2=-1.0) == 1.0

    def test_clip_at_upper(self):
        out = update_a(4.0, e=1.0, y1=2.0, y2=0.0)  # positive increment
        assert out == 4.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            update_a(1.0, e=float("nan"), y1=0.0, y2=0.0)

    def test_direction_favors_better_filter(self):
        # when branch 1 has the much smaller a-priori error, the mean
        # increment of a is positive (mix drifts toward branch 1)
        rng = np.random.default_rng(0)
        a, lam = 0.0, lambda_of(0.0)
        incs = []
        for _ in range(4000):
            ea1 = 0.01 * rng.standard_normal()
            ea2 = 1.0 * rng.standard_normal()
            noise = 0.03 * rng.standard_normal()
            # y_l = d_clean - ea_l, e = lam*ea1 + (1-lam)*ea2 + noise
            d_clean = rng.standard_normal()
            y1, y2 = d_clean - ea1, d_clean - ea2
            e = lam * ea1 + (1 - lam) * ea2 + noise
            incs.append(update_a(a, e, y1, y2) - a)
        assert np.mean(incs) > 0

    def test_lambda_stays_in_reachable_range(self):
        rng = np.random.default_rng(1)
        a = 0.0
        lam_plus = lambda_of(4.0)
        lo, hi = 1.0 - lam_plus, lam_plus
        for _ in range(20_000):
            e, y1, y2 = rng.standard_normal(3) * 10.0 ** rng.integers(-3, 3)
            a = update_a(a, float(e), float(y1), float(y2))
            assert lo <= lambda_of(a) <= hi

    def test_array_step_matches_update_a(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(-4.0, 4.0, 300)
        a[:2] = 4.0, -4.0
        e, y1, y2 = rng.standard_normal((3, 300))
        lam = lambda_of(a)
        out = mixing_step(a, lam, e, y1, y2)
        for k in range(a.size):
            assert lam[k] == lambda_of(float(a[k]))
            assert out[k] == update_a(float(a[k]), float(e[k]), float(y1[k]), float(y2[k]))
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
        out = update_a(a0, e, y1, y2)
        assert type(out) is float
        assert -4.0 <= out <= 4.0
