import math

import numpy as np
import pytest

from apamix.errors import DivergenceError, NumericalError
from apamix.filters import (
    DELTA,
    RHO_P,
    FilterConfig,
    FilterState,
    ProportionateConfig,
    RegressorBuffer,
    apa_step,
    gain_matrix,
    nlms_ocf_step,
    push,
    za_apa_step,
    za_papa_step,
)
from apamix.signals import Observation, make_rng


def obs(u, d):
    return Observation(u=np.asarray(u, float), d=float(d), epsilon=0.0)


def filled_buffer(rng, L, M, w_opt=None, noise=0.0):
    """Buffer holding M random regressors with consistent desired responses."""
    if w_opt is None:
        w_opt = rng.standard_normal(L)
    buf = RegressorBuffer.zeros(L, M)
    for _ in range(M):
        u = rng.standard_normal(L)
        buf = push(buf, obs(u, u @ w_opt + noise * rng.standard_normal()))
    return buf, w_opt


class TestPush:
    def test_cold_start(self):
        buf = RegressorBuffer.zeros(3, 2)
        buf = push(buf, obs([1.0, 2.0, 3.0], 7.0))
        assert np.array_equal(buf.U[:, 0], [1.0, 2.0, 3.0])
        assert np.array_equal(buf.U[:, 1], np.zeros(3))
        assert buf.d[0] == 7.0 and buf.d[1] == 0.0

    def test_holds_last_m(self):
        buf = RegressorBuffer.zeros(2, 3)
        for k in range(3):
            buf = push(buf, obs([k, k], float(k)))
        assert np.array_equal(buf.d, [2.0, 1.0, 0.0])
        assert np.array_equal(buf.U[0], [2.0, 1.0, 0.0])

    def test_eviction(self):
        buf = RegressorBuffer.zeros(2, 2)
        for k in range(3):
            buf = push(buf, obs([k, 0], float(k)))
        assert np.array_equal(buf.d, [2.0, 1.0])  # the k=0 entry is gone

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            push(RegressorBuffer.zeros(3, 2), obs([1.0, 2.0], 0.0))


class TestApaStep:
    def test_order_one_is_nlms(self):
        rng = np.random.default_rng(3)
        cfg = FilterConfig(M=1, mu=0.7, eps=0.0)
        state = FilterState(w=rng.standard_normal(8), config=cfg)
        u = rng.standard_normal(8)
        d = 1.3
        buf = push(RegressorBuffer.zeros(8, 1), obs(u, d))
        out = apa_step(state, buf)
        e = d - u @ state.w
        expected = state.w + cfg.mu * e * u / (u @ u)
        assert np.allclose(out.w, expected, rtol=1e-12, atol=1e-14)

    def test_zero_step_size_is_identity(self):
        rng = np.random.default_rng(4)
        cfg = FilterConfig(M=2, mu=0.0)
        state = FilterState(w=rng.standard_normal(4), config=cfg)
        buf, _ = filled_buffer(rng, 4, 2)
        assert np.array_equal(apa_step(state, buf).w, state.w)

    def test_exact_projection_full_order(self):
        # mu=1, eps->0, M=L with full-rank window: the update interpolates
        # the window, so re-evaluating against the same buffer gives e=0
        rng = np.random.default_rng(5)
        cfg = FilterConfig(M=4, mu=1.0, eps=1e-12)
        state = FilterState(w=rng.standard_normal(4), config=cfg)
        buf, _ = filled_buffer(rng, 4, 4, noise=0.0)
        out = apa_step(state, buf)
        e = buf.d - buf.U.T @ out.w
        assert np.abs(e).max() < 1e-8

    def test_divergence_detected(self):
        # an ill-scaled window makes the solve overflow; the step must fail loudly
        cfg = FilterConfig(M=1, mu=1.0, eps=0.0)
        state = FilterState(w=np.zeros(2), config=cfg)
        buf = RegressorBuffer(U=np.array([[1e-150], [0.0]]), d=np.array([1e200]))
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(DivergenceError):
            apa_step(state, buf)

    def test_solver_failure_propagates(self):
        cfg = FilterConfig(M=2, mu=1.0, eps=0.0)
        state = FilterState.zeros(cfg, 2)
        buf = RegressorBuffer.zeros(2, 2)  # singular window, no loading
        with pytest.raises(NumericalError):
            apa_step(state, buf)


class TestZaApaStep:
    def test_zero_rho_matches_apa(self):
        rng = np.random.default_rng(6)
        cfg = FilterConfig(M=2, mu=0.5, rho=0.0, eps=1e-6)
        state = FilterState(w=rng.standard_normal(6), config=cfg)
        buf, _ = filled_buffer(rng, 6, 2)
        assert np.array_equal(za_apa_step(state, buf).w, apa_step(state, buf).w)

    def test_cold_start_matches_apa(self):
        rng = np.random.default_rng(7)
        cfg = FilterConfig(M=2, mu=0.5, rho=1e-3, eps=1e-6)
        state = FilterState.zeros(cfg, 6)
        buf, _ = filled_buffer(rng, 6, 2)
        assert np.array_equal(za_apa_step(state, buf).w, apa_step(state, buf).w)

    def test_exact_attractor_coupling(self):
        rng = np.random.default_rng(8)
        cfg = FilterConfig(M=3, mu=0.5, rho=2.5e-4, eps=1e-6)
        state = FilterState(w=rng.standard_normal(6), config=cfg)
        buf, _ = filled_buffer(rng, 6, 3, noise=0.1)
        za = za_apa_step(state, buf).w
        apa = apa_step(state, buf).w
        assert np.array_equal(za, apa - cfg.rho * np.sign(state.w))

    def test_inactive_tap_shrinks_toward_zero(self):
        # toy L=2 system with one inactive tap: over a shared seed set, the
        # attractor lowers the inactive tap's steady-window MSD, by more than
        # 3 standard errors of the trials' paired differences
        L, runs, n, win, rho = 2, 50, 400, 200, 0.03
        w_opt = np.array([1.0, 0.0])
        cfg_apa = FilterConfig(M=1, mu=0.5, rho=0.0, eps=1e-8)
        cfg_za = FilterConfig(M=1, mu=0.5, rho=rho, eps=1e-8)
        avg_apa, avg_za, msd_apa, msd_za = np.zeros((4, runs))
        for t in range(runs):
            rng = make_rng(100, t)
            x = rng.standard_normal(n + 1)
            noise = 0.1 * rng.standard_normal(n)
            s_apa = FilterState.zeros(cfg_apa, L)
            s_za = FilterState.zeros(cfg_za, L)
            buf = RegressorBuffer.zeros(L, 1)
            for i in range(n):
                u = np.array([x[i + 1], x[i]])
                o = obs(u, u @ w_opt + noise[i])
                buf = push(buf, o)
                s_apa = apa_step(s_apa, buf)
                s_za = za_apa_step(s_za, buf)
                if i >= n - win:
                    avg_apa[t] += s_apa.w[1] / win
                    avg_za[t] += s_za.w[1] / win
                    msd_apa[t] += s_apa.w[1] ** 2 / win
                    msd_za[t] += s_za.w[1] ** 2 / win
        gain = msd_apa - msd_za
        assert gain.mean() > 3 * gain.std(ddof=1) / np.sqrt(runs)
        # the attractor also shrinks the spread of the window mean on the inactive tap
        assert np.std(avg_za) < np.std(avg_apa)


class TestConvergedStart:
    @pytest.mark.parametrize(
        "step, gains",
        [(apa_step, None), (za_apa_step, None), (za_papa_step, ProportionateConfig())],
    )
    def test_converged_start_stays_converged(self, step, gains):
        # noiseless, attractor off, weights at the truth: the truth is a fixed
        # point, so every a-priori error stays zero up to rounding
        rng = np.random.default_rng(12)
        L, M = 16, 4
        cfg = FilterConfig(M=M, mu=0.5, rho=0.0, eps=2e-4, proportionate=gains)
        w_opt = np.where(rng.random(L) < 0.5, rng.standard_normal(L), 0.0)
        state = FilterState(w=w_opt.copy(), config=cfg)
        buf = RegressorBuffer.zeros(L, M)
        for _ in range(150):
            u = rng.standard_normal(L)
            buf = push(buf, obs(u, u @ w_opt))
            assert abs(buf.d[0] - u @ state.w) < 1e-12
            state = step(state, buf)
        assert np.abs(state.w - w_opt).max() < 1e-12


class TestGainMatrix:
    def test_uniform_magnitudes(self):
        g = gain_matrix(np.array([0.5, -0.5, 0.5, -0.5]))
        assert np.allclose(g, 1.0, atol=1e-15)

    def test_startup_all_zero(self):
        g = gain_matrix(np.zeros(8))
        assert np.allclose(g, 1.0, atol=1e-15)

    def test_mean_is_one(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            w = rng.standard_normal(rng.integers(1, 40)) * 10.0 ** rng.integers(-6, 3)
            g = gain_matrix(w)
            assert g.mean() == pytest.approx(1.0, abs=1e-12)
            assert (g > 0).all()

    def test_large_taps_get_larger_gains(self):
        g = gain_matrix(np.array([1.0, 0.0, 0.0, 0.0]))
        assert g[0] > 1.0 > g[1]
        # the zero taps keep the floor RHO_P of the largest magnitude
        assert g[1] == pytest.approx(RHO_P * g[0], rel=1e-15)

    def test_settings_floor_every_tap_above_zero(self):
        # RHO_P = 0 would stall the zero taps, and RHO_P >= 1 would make
        # every gain 1; DELTA = 0 would zero every gain at startup
        assert 0 < RHO_P < 1
        assert 0 < DELTA < math.inf

    def test_batch_equals_row_by_row(self):
        rng = np.random.default_rng(11)
        W = rng.standard_normal((6, 12)) * 10.0 ** rng.integers(-6, 3, size=(6, 1))
        W[2] = 0.0  # startup row: the delta floor applies
        G = gain_matrix(W)
        assert G.shape == W.shape
        for w, g in zip(W, G):
            assert np.array_equal(g, gain_matrix(w))
        assert np.allclose(G[2], 1.0, atol=1e-15)
        # any number of leading batch axes
        assert np.array_equal(gain_matrix(W.reshape(2, 3, 12)), G.reshape(2, 3, 12))


class TestZaPapaStep:
    def test_uniform_gain_equals_za_apa(self):
        # equal tap magnitudes make the gain exactly uniform
        rng = np.random.default_rng(10)
        cfg = FilterConfig(
            M=2, mu=0.5, rho=1e-4, eps=1e-6,
            proportionate=ProportionateConfig(),
        )
        w = 0.5 * np.sign(rng.standard_normal(8))
        state = FilterState(w=w, config=cfg)
        buf, _ = filled_buffer(rng, 8, 2, noise=0.1)
        papa = za_papa_step(state, buf).w
        za = za_apa_step(state, buf).w
        assert np.allclose(papa, za, rtol=1e-12, atol=1e-14)

    def test_uniform_gain_zero_rho_equals_apa(self):
        rng = np.random.default_rng(11)
        cfg = FilterConfig(
            M=2, mu=0.5, rho=0.0, eps=1e-6,
            proportionate=ProportionateConfig(),
        )
        w = 0.25 * np.sign(rng.standard_normal(8))
        state = FilterState(w=w, config=cfg)
        buf, _ = filled_buffer(rng, 8, 2, noise=0.1)
        assert np.allclose(za_papa_step(state, buf).w, apa_step(state, buf).w,
                           rtol=1e-12, atol=1e-14)

    def test_requires_proportionate_config(self):
        cfg = FilterConfig(M=2, mu=0.5, rho=1e-4)
        with pytest.raises(ValueError):
            za_papa_step(FilterState.zeros(cfg, 4), RegressorBuffer.zeros(4, 2))


class TestNlmsOcf:
    def test_order_one_is_nlms(self):
        rng = np.random.default_rng(12)
        cfg = FilterConfig(M=1, mu=0.8, eps=0.0)
        state = FilterState(w=rng.standard_normal(6), config=cfg)
        u = rng.standard_normal(6)
        d = -0.4
        out = nlms_ocf_step(state, [(u, d)])
        e = d - u @ state.w
        assert np.allclose(out.w, state.w + cfg.mu * e * u / (u @ u), rtol=1e-12)

    def test_orthogonal_window_matches_apa(self):
        # on mutually orthogonal regressors with mu=1 the sequential
        # corrections solve the same interpolation as the joint projection
        rng = np.random.default_rng(13)
        L = M = 4
        cfg = FilterConfig(M=M, mu=1.0, eps=1e-10)
        q, _ = np.linalg.qr(rng.standard_normal((L, L)))
        amps = rng.uniform(0.5, 2.0, M)
        w_opt = rng.standard_normal(L)
        state = FilterState(w=rng.standard_normal(L), config=cfg)
        buf = RegressorBuffer.zeros(L, M)
        recent = []
        for k in range(M):
            u = amps[k] * q[:, k]
            d = float(u @ w_opt)
            buf = push(buf, obs(u, d))
            recent.insert(0, (u, d))
        apa_w = apa_step(state, buf).w
        ocf_w = nlms_ocf_step(state, recent).w
        assert np.abs(apa_w - ocf_w).max() < 1e-8

    def test_duplicate_regressor_skipped(self):
        rng = np.random.default_rng(14)
        cfg = FilterConfig(M=2, mu=0.6, eps=0.0)
        state = FilterState(w=rng.standard_normal(5), config=cfg)
        u = rng.standard_normal(5)
        d = 0.9
        dup = nlms_ocf_step(state, [(u, d), (u, 123.0)])
        single = nlms_ocf_step(state, [(u, d)])
        assert np.array_equal(dup.w, single.w)

    def test_rejects_bad_window_length(self):
        cfg = FilterConfig(M=2, mu=0.5)
        with pytest.raises(ValueError):
            nlms_ocf_step(FilterState.zeros(cfg, 4), [])
