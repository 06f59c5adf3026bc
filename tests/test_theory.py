import math
from fractions import Fraction

import numpy as np
import pytest

from apamix.errors import AnalysisViolation
from apamix.theory import (
    TheoryInputs,
    apa_msd_per_tap,
    combined_emse_prediction,
    cross_msd_inactive,
    emse_from_msd,
    lambda_infinity,
    mean_weight_deviation,
    predict_steady_state,
    rho_bound_global,
    rho_bound_sparse_case,
    zaapa_msd_active,
    zaapa_msd_inactive,
)

# canonical operating points: the benchmark scenario and its desk-scale analog
FULL = dict(L=256, M=8, mu=0.5, noise_variance=1e-3)
DESK = dict(L=64, M=4, mu=0.5, noise_variance=1e-3)


def ti(rho=0.0, K=16, **kw):
    base = dict(FULL)
    base.update(kw)
    return TheoryInputs(K=K, rho=rho, **base)


def ti_desk(rho=0.0, K=4, **kw):
    base = dict(DESK)
    base.update(kw)
    return TheoryInputs(K=K, rho=rho, **base)


class TestBeta:
    @pytest.mark.parametrize("L", [3, 64, 100, 256])
    def test_single_update_selects_with_probability_p(self, L):
        t = TheoryInputs(L=L, K=0, M=1, mu=0.5, rho=0.0, noise_variance=1e-3)
        assert t.p == 1.0 / L
        assert t.beta == pytest.approx(1.0 / L, abs=1e-15)

    def test_benchmark_value_vs_exact_fraction(self):
        exact = 1 - Fraction(255, 256) ** 8
        assert ti().beta == pytest.approx(float(exact), rel=1e-12)
        assert ti().beta == pytest.approx(0.0308260755, abs=1e-9)


class TestInvR2:
    def test_smallest_length(self):
        t = TheoryInputs(L=3, K=0, M=1, mu=0.5, rho=0.0, noise_variance=1e-3)
        assert t.inv_r2 == pytest.approx(1.0, abs=1e-15)

    def test_benchmark_length(self):
        assert ti().inv_r2 == pytest.approx(1.0 / 254.0, rel=1e-14)

    def test_variance_scaling(self):
        assert ti_desk(input_variance=2.0).inv_r2 == pytest.approx(ti_desk().inv_r2 / 2, rel=1e-14)

    def test_monte_carlo_cross_check(self):
        # chi-square reciprocal mean, estimated from 1e6 sliding windows of white input
        L, draws = 256, 1_000_000
        x = np.random.Generator(np.random.Philox(0)).standard_normal(draws + L - 1)
        sq = np.concatenate([[0.0], np.cumsum(x * x)])
        est = np.mean(1.0 / (sq[L:] - sq[:-L]))
        assert est == pytest.approx(ti().inv_r2, rel=0.01)


class TestApaMsd:
    def test_vanishing_step(self):
        assert apa_msd_per_tap(ti(mu=1e-9)) < 1e-12

    def test_unit_step(self):
        t = ti(mu=1.0)
        assert apa_msd_per_tap(t) == pytest.approx(1e-3 * t.inv_r2, rel=1e-14)

    def test_benchmark_value(self):
        # (mu/(2-mu)) * noise * E[1/r^2] at the full-scale operating point
        assert apa_msd_per_tap(ti()) == pytest.approx((0.5 / 1.5) * 1e-3 / 254.0, rel=1e-12)
        assert apa_msd_per_tap(ti()) == pytest.approx(1.31233596e-06, rel=1e-8)


class TestZaapaMsdActive:
    def test_zero_attractor_collapses(self):
        assert zaapa_msd_active(ti(rho=0.0)) == apa_msd_per_tap(ti(rho=0.0))

    def test_increasing_in_rho(self):
        vals = [zaapa_msd_active(ti(rho=r)) for r in np.linspace(0, 1e-4, 20)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_direct_evaluation(self):
        t = ti(rho=8e-6)
        extra = 8e-6**2 * (2 - t.mu * t.beta) / (t.mu**2 * t.beta**2 * (2 - t.mu))
        assert zaapa_msd_active(t) == pytest.approx(apa_msd_per_tap(t) + extra, rel=1e-12)
        assert zaapa_msd_active(t) == pytest.approx(1.66877262e-06, rel=1e-8)


class TestZaapaMsdInactive:
    def test_zero_attractor_collapses(self):
        t = ti(rho=0.0)
        assert zaapa_msd_inactive(t) == pytest.approx(apa_msd_per_tap(t), rel=1e-12)

    def test_below_apa_value_across_admissible_range(self):
        bound = rho_bound_global(ti_desk())
        for rho in np.linspace(1e-7, bound, 25):
            t = ti_desk(rho=float(rho))
            assert zaapa_msd_inactive(t) <= apa_msd_per_tap(t)

    def test_fixed_point_residual(self):
        # the returned value must satisfy its own defining balance equation
        for rho in (1e-6, 8e-6, 1e-4):
            t = ti(rho=rho)
            lam = zaapa_msd_inactive(t)
            num = t.mu**2 * t.beta * t.noise_variance * t.inv_r2 + rho**2
            den = t.mu * (2 - t.mu) * t.beta + 2 * rho * (1 - t.mu * t.beta) * math.sqrt(
                2 / math.pi
            ) / math.sqrt(lam)
            assert abs(lam - num / den) <= 1e-12 * lam

    def test_benchmark_value(self):
        assert zaapa_msd_inactive(ti(rho=8e-6)) == pytest.approx(8.22146854e-07, rel=1e-8)


class TestCrossMsd:
    @pytest.mark.parametrize("mu", [0.5, 1.0])
    @pytest.mark.parametrize("rho", [0.0, 8e-6, 1e-4])
    def test_active_cross_term_is_the_plain_msd(self, rho, mu):
        # at K = L every tap is active, so J12 is J1 whatever rho
        t = ti(rho=rho, K=256, mu=mu)
        p = predict_steady_state(t)
        assert p.J12 == p.J1
        if mu == 1.0:
            assert p.J12 == pytest.approx(256 * 1e-3 * t.inv_r2, rel=1e-14)

    def test_inactive_zero_attractor_collapses(self):
        t = ti(rho=0.0)
        assert cross_msd_inactive(t) == pytest.approx(apa_msd_per_tap(t), rel=1e-12)

    def test_inactive_below_apa_for_positive_rho(self):
        for rho in (1e-6, 8e-6, 5e-5):
            t = ti(rho=rho)
            assert cross_msd_inactive(t) < apa_msd_per_tap(t)

    def test_benchmark_value(self):
        assert cross_msd_inactive(ti(rho=8e-6)) == pytest.approx(1.00964544e-06, rel=1e-8)

    def test_cauchy_schwarz_per_tap_class(self):
        for rho in np.geomspace(1e-7, 3e-4, 30):
            t = ti_desk(rho=float(rho))
            lam1 = apa_msd_per_tap(t)
            # an active tap's cross deviation is the plain value lam1
            assert lam1 <= math.sqrt(lam1 * zaapa_msd_active(t)) * (1 + 1e-12)
            assert cross_msd_inactive(t) <= math.sqrt(lam1 * zaapa_msd_inactive(t)) * (1 + 1e-12)


class TestEmse:
    def test_full_support(self):
        assert emse_from_msd(2e-6, 99.0, K=64, L=64, input_variance=1.0) == pytest.approx(
            64 * 2e-6, rel=1e-14
        )

    def test_empty_support(self):
        assert emse_from_msd(99.0, 3e-6, K=0, L=64, input_variance=1.0) == pytest.approx(
            64 * 3e-6, rel=1e-14
        )

    def test_benchmark_apa_emse(self):
        lam1 = apa_msd_per_tap(ti())
        J1 = emse_from_msd(lam1, lam1, K=256, L=256, input_variance=1.0)
        assert J1 == pytest.approx(3.35957e-04, rel=1e-5)

    def test_validation(self):
        with pytest.raises(ValueError):
            emse_from_msd(1e-6, 1e-6, K=5, L=4)


class TestRhoBounds:
    def test_no_inactive_taps_gives_zero(self):
        assert rho_bound_global(ti(K=256)) == 0.0

    def test_undefined_for_all_inactive(self):
        assert rho_bound_global(ti(K=0)) is None

    def test_monotone_in_sparsity(self):
        bounds = [rho_bound_global(ti(K=k)) for k in (255, 192, 128, 64, 16)]
        assert all(b is not None for b in bounds)
        assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_frozen_values(self):
        assert rho_bound_global(ti_desk(K=4)) == pytest.approx(2.26446580e-04, rel=1e-6)
        assert rho_bound_global(ti(K=16)) == pytest.approx(5.67360538e-05, rel=1e-6)

    def test_sparse_case_bound_scales_with_noise(self):
        b1 = rho_bound_sparse_case(ti(noise_variance=1e-3))
        b4 = rho_bound_sparse_case(ti(noise_variance=4e-3))
        assert b4 == pytest.approx(2.0 * b1, rel=1e-12)
        assert rho_bound_sparse_case(ti(noise_variance=0.0)) == 0.0

    def test_sparse_case_frozen_value(self):
        assert rho_bound_sparse_case(ti_desk()) == pytest.approx(4.78196562e-04, rel=1e-6)

    def test_sparse_case_is_exact_inactive_crossing(self):
        # at the bound, the inactive-tap deviation equals the cross deviation
        rho_star = rho_bound_sparse_case(ti_desk())
        t = ti_desk(rho=rho_star)
        assert zaapa_msd_inactive(t) == pytest.approx(cross_msd_inactive(t), rel=1e-9)
        below = ti_desk(rho=0.5 * rho_star)
        above = ti_desk(rho=2.0 * rho_star)
        assert zaapa_msd_inactive(below) < cross_msd_inactive(below)
        assert zaapa_msd_inactive(above) > cross_msd_inactive(above)


class TestMeanWeightDeviation:
    def test_zero_attractor(self):
        w = np.array([1.0, 0.0, -2.0])
        assert np.array_equal(mean_weight_deviation(ti(rho=0.0), w), np.zeros(3))

    def test_benchmark_magnitude(self):
        t = ti(rho=8e-6)
        dev = mean_weight_deviation(t, np.array([0.7, 0.0, -0.1]))
        assert abs(dev[0]) == pytest.approx(5.19041095e-04, rel=1e-8)
        assert dev[1] == 0.0

    def test_sign_pattern(self):
        w = np.array([2.0, -3.0, 0.0, 0.5])
        dev = mean_weight_deviation(ti(rho=8e-6), w)
        assert np.array_equal(np.sign(dev), np.sign(w))


class TestLambdaInfinity:
    def test_symmetric_mixing(self):
        lam, regime = lambda_infinity(2.0, 2.0, 1.0, 0.982)
        assert lam == pytest.approx(0.5, abs=1e-15)
        assert regime == "semi_sparse"

    def test_non_sparse_saturation(self):
        lam, regime = lambda_infinity(1.0, 2.0, 1.0, 0.982)
        assert lam == 0.982 and regime == "non_sparse"

    def test_sparse_saturation(self):
        lam, regime = lambda_infinity(2.0, 1.0, 1.0, 0.982)
        assert lam == pytest.approx(1 - 0.982, abs=1e-15)
        assert regime == "sparse_caseI"

    def test_three_to_one_ratio(self):
        lam, _ = lambda_infinity(1.0 + 1.0, 1.0 + 3.0, 1.0, 0.982)
        assert lam == pytest.approx(0.75, abs=1e-12)

    def test_case_ii_labeling(self):
        # zero-attracting branch better, but cross is even lower: interior point
        lam, regime = lambda_infinity(3.0, 2.0, 1.0, 0.982)
        assert regime == "sparse_caseII"
        assert lam == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_clip(self):
        lam, _ = lambda_infinity(1.0 + 1e-9, 1.0 + 1.0, 1.0, 0.982)
        assert lam == 0.982

    def test_analysis_violation(self):
        with pytest.raises(AnalysisViolation):
            lambda_infinity(1.0, 1.0, 2.0, 0.982)
        with pytest.raises(AnalysisViolation):
            lambda_infinity(1.0, 2.0, 1.1 * 2.0, 0.982)

    @pytest.mark.parametrize("J1, J2, lam_plus, match", [
        (-1.0, 2.0, 0.982, "EMSEs must be >= 0"),
        (2.0, -1.0, 0.982, "EMSEs must be >= 0"),
        (2.0, 2.0, 0.5, r"lam_plus must lie in \(0.5, 1\)"),
        (2.0, 2.0, 1.0, r"lam_plus must lie in \(0.5, 1\)"),
    ])
    def test_rejects_negative_emse_and_clip_outside_its_range(self, J1, J2, lam_plus, match):
        with pytest.raises(ValueError, match=match):
            lambda_infinity(J1, J2, 0.0, lam_plus)

    @pytest.mark.parametrize("J", [0.0, 3.44e-4])
    def test_tie_is_no_violation(self, J):
        assert lambda_infinity(J, J, J, 0.982) == (0.982, "non_sparse")
        # rounding-level excess, as the closed forms give at rho = 0
        assert lambda_infinity(J, J, J * (1 + 4e-16), 0.982) == (0.982, "non_sparse")


class TestCombinedEmse:
    def test_endpoints(self):
        assert combined_emse_prediction(1.0, 3.0, 9.0, 1.0) == 3.0
        assert combined_emse_prediction(0.0, 3.0, 9.0, 1.0) == 9.0

    @pytest.mark.parametrize("lam", [-0.1, 1.1])
    def test_rejects_lambda_outside_unit_interval(self, lam):
        with pytest.raises(ValueError, match=r"lam must lie in \[0, 1\]"):
            combined_emse_prediction(lam, 3.0, 9.0, 1.0)

    def test_stationary_point_beats_both_components(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            J1, J2 = rng.uniform(0.1, 10.0, 2)
            J12 = rng.uniform(0.0, math.sqrt(J1 * J2))
            if J1 - J12 <= 0 or J2 - J12 <= 0:
                continue
            lam, _ = lambda_infinity(J1, J2, J12, 0.9999)
            combined = combined_emse_prediction(lam, J1, J2, J12)
            assert combined <= min(J1, J2) * (1 + 1e-9)


class TestPredictSteadyState:
    def test_desk_segments_match_independent_evaluation(self):
        # frozen values computed with a separately written evaluation of the
        # same closed forms (desk scale, attractor from the preset scaling)
        rho = 3.19298316e-05
        lam_plus = 1 / (1 + math.exp(-4.0))  # the mixing rule's clip, 1/(1 + e^-A_PLUS)
        p4 = predict_steady_state(ti_desk(rho=rho, K=4))
        assert p4.J1 == pytest.approx(64 * 5.37634e-06, rel=1e-4)
        assert p4.J2 < p4.J12 < p4.J1
        assert p4.regime == "sparse_caseI"
        assert p4.lam_inf == pytest.approx(1 - lam_plus, abs=1e-12)

        p64 = predict_steady_state(ti_desk(rho=rho, K=64))
        assert p64.regime == "non_sparse"
        assert p64.J12 == pytest.approx(p64.J1, rel=1e-12)
        assert p64.lam_inf == lam_plus
        assert p64.rho_bound == 0.0

    def test_half_bound_point_frozen_values(self):
        rho = 1.13223290e-04  # half the admissible-range bound at desk scale
        p = predict_steady_state(ti_desk(rho=rho, K=4))
        assert p.msd_active == pytest.approx(2.34403602e-05, rel=1e-7)
        assert p.msd_inactive == pytest.approx(1.29795863e-06, rel=1e-7)
        assert p.cross_inactive == pytest.approx(2.00690011e-06, rel=1e-7)
        # interior mixing: the attractor is strong enough that the cross
        # term drops below the zero-attracting branch
        assert p.regime == "sparse_caseII"


class TestNearTie:
    """Near rho = 0 the closed forms split at first order in rho, not by
    rounding: (J1 - J12)/J1 and (J12 - J2)/J1 grow as c*rho, with c = 6.83e3
    at the desk shape's K = 4 and 5.01e3 at K = 20. So rho = 1e-15 labels
    K = 4 ``sparse_caseI`` by 6.8e-12, above a 1e-12 relative tie tolerance,
    while rho = 0 is the real tie, labelled ``non_sparse``."""

    lam_plus = 1 / (1 + math.exp(-4.0))

    @pytest.mark.parametrize("K, slope", [(4, 6.8305e3), (20, 5.0091e3)])
    def test_split_is_linear_in_rho(self, K, slope):
        for rho in (1e-15, 1e-12, 1e-9):
            p = predict_steady_state(ti_desk(rho=rho, K=K))
            assert (p.J1 - p.J12) / p.J1 == pytest.approx(slope * rho, rel=1e-3)
            assert (p.J2 - p.J12) / p.J1 == pytest.approx(-slope * rho, rel=1e-3)

    @pytest.mark.parametrize("K", [4, 20])
    def test_labels_at_zero_and_at_the_smallest_rho(self, K):
        tie = predict_steady_state(ti_desk(rho=0.0, K=K))
        assert abs(tie.J1 - tie.J12) < 1e-15 * tie.J1
        assert (tie.regime, tie.lam_inf) == ("non_sparse", self.lam_plus)
        split = predict_steady_state(ti_desk(rho=1e-15, K=K))
        assert (split.J1 - split.J12) / split.J1 > 1e-12
        assert (split.regime, split.lam_inf) == ("sparse_caseI", 1 - self.lam_plus)


class TestPriceTheoremBlock:
    def test_rectified_gaussian_mean(self):
        # E[sign(w) * w] = E[|w|] = sigma * sqrt(2/pi) at 1e6 samples
        rng = np.random.default_rng(11)
        sigma = 1.7
        w = sigma * rng.standard_normal(1_000_000)
        est = np.mean(np.sign(w) * w)
        assert est == pytest.approx(sigma * math.sqrt(2 / math.pi), rel=0.02)


class TestTheoryInputsValidation:
    def test_bad_mu(self):
        with pytest.raises(ValueError):
            TheoryInputs(L=64, K=4, M=4, mu=2.0, rho=0.0, noise_variance=1e-3)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            TheoryInputs(L=64, K=65, M=4, mu=0.5, rho=0.0, noise_variance=1e-3)

    @pytest.mark.parametrize("L", [0, 2])
    def test_too_few_taps(self, L):
        with pytest.raises(ValueError, match="needs L >= 3"):
            TheoryInputs(L=L, K=0, M=1, mu=0.5, rho=0.0, noise_variance=1e-3)

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("rho", float("nan"), "rho must be finite and >= 0"),
            ("rho", float("inf"), "rho must be finite and >= 0"),
            ("rho", -1e-6, "rho must be finite and >= 0"),
            ("noise_variance", float("nan"), "noise variance must be finite and >= 0"),
            ("noise_variance", float("inf"), "noise variance must be finite and >= 0"),
            ("input_variance", float("inf"), "input variance must be positive and finite"),
            ("input_variance", float("nan"), "input variance must be positive and finite"),
            ("input_variance", 0.0, "input variance must be positive and finite"),
            ("M", 0, "M must be >= 1"),
        ],
    )
    def test_non_finite_or_negative_input_names_its_field(self, field, value, match):
        point = dict(L=64, K=4, M=4, mu=0.5, rho=0.0, noise_variance=1e-3)
        with pytest.raises(ValueError, match=match):
            TheoryInputs(**{**point, field: value})

    def test_white_defaults(self):
        t = ti_desk()
        assert t.p == pytest.approx(1 / 64, rel=1e-14)
        assert t.beta == pytest.approx(0.0610503554, abs=1e-9)
        assert t.inv_r2 == pytest.approx(1 / 62, rel=1e-14)
