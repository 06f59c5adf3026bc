"""Validation gate: one test per numbered acceptance criterion.

Each test evaluates its criterion at the stated tolerance and prints a
single ``[PASS]``/``[FAIL]`` line (run with ``pytest -s`` to see them
all). Criteria 1, 2, 3 and 5 compare the simulation against the
closed-form steady-state predictors at desk scale; see the README's
"Validation status" section for why those four are expected to fail with
the faithful sliding-window algorithms at projection order 4.
"""

import math
import time
from collections import deque

import numpy as np
import pytest

from apamix.filters import (
    FilterConfig,
    FilterState,
    ProportionateConfig,
    RegressorBuffer,
    apa_step,
    nlms_ocf_step,
    push,
)
from apamix.harness import (
    ExperimentConfig,
    MixingConfig,
    default_eps,
    preset_paper_scenario,
    run_experiment,
    steady_state_stats,
    sweep_rho,
)
from apamix.signals import Observation, ScenarioDef, SegmentDef, SignalModel, make_rng
from apamix.theory import (
    TheoryInputs,
    apa_msd_per_tap,
    emse_from_msd,
    mean_weight_deviation,
    rho_bound_global,
    rho_bound_sparse_case,
    zaapa_msd_active,
    zaapa_msd_inactive,
)

LAM_PLUS = 1.0 / (1.0 + math.exp(-4.0))
DESK = dict(L=64, M=4, mu=0.5, noise_variance=1e-3)


def db(x):
    return 10.0 * math.log10(x)


def report(num, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def desk_theory_inputs(rho, K):
    return TheoryInputs(L=64, K=K, M=4, mu=0.5, rho=rho, noise_variance=1e-3)


def sparse_static_config(rho, runs=200, seed=33, filter2_kind="zaapa"):
    """Static desk-scale sparse system (L=64, K=4), single 4000-sample segment."""
    eps = default_eps(4)
    prop = ProportionateConfig() if filter2_kind == "zapapa" else None
    return ExperimentConfig(
        scenario=ScenarioDef(
            L=64,
            segments=(SegmentDef(4000, 4),),
            noise_variance=1e-3,
            input=SignalModel(variance=1.0, pole=0.0),
            seed=seed,
        ),
        filter2=FilterConfig(M=4, mu=0.5, rho=rho, eps=eps, proportionate=prop),
        mixing=MixingConfig(),
        runs=runs,
    )


@pytest.fixture(scope="module")
def desk_white():
    cfg = preset_paper_scenario("desk", "white", seed=21)
    t0 = time.monotonic()
    curves = run_experiment(cfg)
    return cfg, curves, time.monotonic() - t0


@pytest.fixture(scope="module")
def halfbound():
    rho = 0.5 * rho_bound_global(desk_theory_inputs(0.0, K=4))
    cfg = sparse_static_config(rho, runs=200, seed=34)
    return cfg, run_experiment(cfg)


@pytest.fixture(scope="module")
def desk_ar():
    cfg = preset_paper_scenario("desk", "ar1", seed=22)
    return cfg, run_experiment(cfg)


def test_criterion_1_apa_steady_state_vs_theory(desk_white):
    cfg, curves, elapsed = desk_white
    st = steady_state_stats(curves, 0, cfg.steady_window_fraction)
    ti = desk_theory_inputs(0.0, K=64)
    lam1 = apa_msd_per_tap(ti)
    predicted = emse_from_msd(lam1, lam1, K=64, L=64)
    gap_db = db(st.J1) - db(predicted)
    report(
        1,
        abs(gap_db) <= 1.0,
        f"plain-branch steady EMSE {st.J1:.3e} ({db(st.J1):.2f} dB) vs closed form "
        f"{predicted:.3e} ({db(predicted):.2f} dB), gap {gap_db:+.2f} dB "
        f"(tolerance 1 dB); preset run took {elapsed:.0f}s",
    )


def test_criterion_2_per_tap_msd_vs_theory(halfbound):
    cfg, curves = halfbound
    rho = cfg.filter2.rho
    seg = curves.segments[0]
    ti = desk_theory_inputs(rho, K=4)
    pred_active = zaapa_msd_active(ti)
    pred_inactive = zaapa_msd_inactive(ti)
    emp_active = seg.msd2[seg.active].mean()
    emp_inactive = seg.msd2[~seg.active].mean()
    ok_a = abs(emp_active - pred_active) <= 0.25 * pred_active
    ok_z = abs(emp_inactive - pred_inactive) <= 0.25 * pred_inactive
    report(
        2,
        ok_a and ok_z,
        f"per-tap MSD at rho={rho:.3e}: active {emp_active:.3e} vs predicted "
        f"{pred_active:.3e} (x{emp_active / pred_active:.2f}), inactive "
        f"{emp_inactive:.3e} vs {pred_inactive:.3e} "
        f"(x{emp_inactive / pred_inactive:.2f}); tolerance 25%",
    )


def test_criterion_3_mean_weight_deviation(halfbound):
    cfg, curves = halfbound
    rho = cfg.filter2.rho
    seg = curves.segments[0]
    w_opt = cfg.scenario.materialize().segments[0].w_opt
    ti = desk_theory_inputs(rho, K=4)
    predicted = mean_weight_deviation(ti, w_opt)
    act = seg.active
    ratios = seg.mean_dev2[act] / predicted[act]
    ok_active = bool(np.all(np.abs(ratios - 1.0) <= 0.30))
    z_scores = seg.mean_dev2[~act] / np.maximum(seg.mean_dev2_se[~act], 1e-300)
    ok_inactive = bool(np.all(np.abs(z_scores) <= 3.0))
    report(
        3,
        ok_active and ok_inactive,
        f"active-tap mean deviation ratios to (rho/(mu*beta))*sign: "
        f"{np.array2string(ratios, precision=3)} (tolerance 30%); inactive max |z| "
        f"{np.abs(z_scores).max():.2f} (limit 3)",
    )


def test_criterion_4_regime_behavior(desk_white):
    cfg, curves, _ = desk_white
    wf = cfg.steady_window_fraction
    st0 = steady_state_stats(curves, 0, wf)
    st1 = steady_state_stats(curves, 1, wf)
    st2 = steady_state_stats(curves, 2, wf)

    ok_a = st0.lam >= 0.9 * LAM_PLUS
    rho_star = rho_bound_sparse_case(desk_theory_inputs(cfg.filter2.rho, K=4))
    assert cfg.filter2.rho < rho_star, "precondition: preset attractor below sparse bound"
    case1_limit = (1 - LAM_PLUS) + 0.1 * (2 * LAM_PLUS - 1)
    ok_b = st2.lam <= case1_limit
    ok_c = st1.J <= min(st1.J1, st1.J2) * 10 ** (0.5 / 10)
    report(
        4,
        ok_a and ok_b and ok_c,
        f"(a) non-sparse lam={st0.lam:.3f} >= {0.9 * LAM_PLUS:.3f}: {ok_a}; "
        f"(b) sparse lam={st2.lam:.3f} <= {case1_limit:.3f}: {ok_b}; "
        f"(c) semi-sparse J={st1.J:.3e} <= min(J1,J2)+0.5dB="
        f"{min(st1.J1, st1.J2) * 10 ** 0.05:.3e}: {ok_c}",
    )


def test_criterion_5_rho_regime_flip(halfbound):
    rho_star = rho_bound_sparse_case(desk_theory_inputs(0.0, K=4))
    grid = np.geomspace(0.2, 5.0, 9) * rho_star
    cfg = sparse_static_config(rho=grid[0], runs=100, seed=35)
    points = sweep_rho(cfg, grid)
    diffs = np.array([st.J2 - st.J12 for _, st in points])
    signs = np.sign(diffs)
    flips = np.flatnonzero(signs[:-1] * signs[1:] < 0)
    detail = "sign(J2-J12) over [0.2,5]x{:.3e}: {}".format(
        rho_star, np.array2string(diffs, precision=2)
    )
    if flips.size == 0:
        report(5, False, f"no sign flip inside the sweep range; {detail}")
    crossing = math.sqrt(grid[flips[0]] * grid[flips[0] + 1])
    ok = 0.5 * rho_star <= crossing <= 2.0 * rho_star
    report(
        5,
        ok,
        f"empirical flip near rho={crossing:.3e} vs predicted threshold "
        f"{rho_star:.3e} (required within factor 2); {detail}",
    )


def test_criterion_6_cross_emse_cauchy_schwarz(desk_white, halfbound, desk_ar):
    worst = 0.0
    for _, curves in ((None, desk_white[1]), halfbound, desk_ar):
        bound = np.sqrt(curves.j1 * curves.j2) + 3.0 * curves.j12_se
        excess = np.abs(curves.j12) - bound
        worst = max(worst, float(excess.max()))
        if not (excess <= 1e-15).all():
            break
    report(
        6,
        worst <= 1e-15,
        f"|J12(n)| <= sqrt(J1*J2) + 3 SE at every iteration of every run "
        f"(worst excess {worst:.2e})",
    )


def test_criterion_7_ocf_equals_apa_on_orthogonal_regressors():
    rng = make_rng(77)
    L = M = 4
    cfg = FilterConfig(M=M, mu=1.0, eps=1e-10)
    q, _ = np.linalg.qr(rng.standard_normal((L, L)))
    w_opt = rng.standard_normal(L)
    w0 = rng.standard_normal(L)
    apa_state = FilterState(w=w0.copy(), config=cfg)
    ocf_state = FilterState(w=w0.copy(), config=cfg)
    buf = RegressorBuffer.zeros(L, M)
    recent = deque(maxlen=M)
    worst = 0.0
    for n in range(100):
        u = float(rng.uniform(0.5, 2.0)) * q[:, n % M]
        d = float(u @ w_opt + 0.03 * rng.standard_normal())
        buf = push(buf, Observation(u=u, d=d, epsilon=0.0))
        recent.appendleft((u, d))
        apa_state = apa_step(apa_state, buf)
        ocf_state = nlms_ocf_step(ocf_state, list(recent))
        worst = max(worst, float(np.abs(apa_state.w - ocf_state.w).max()))
    report(
        7,
        worst < 1e-8,
        f"joint-projection vs sequential-correction weights on orthogonal windows: "
        f"max divergence {worst:.2e} over 100 steps (limit 1e-8)",
    )


def test_criterion_8_rectified_gaussian_mean():
    rng = make_rng(88)
    sigma = 0.8
    w = sigma * rng.standard_normal(1_000_000)
    est = float(np.mean(np.sign(w) * w))
    expected = sigma * math.sqrt(2.0 / math.pi)
    rel = abs(est - expected) / expected
    report(
        8,
        rel <= 0.02,
        f"E[sign(w)w] = {est:.6f} vs sigma*sqrt(2/pi) = {expected:.6f} "
        f"({100 * rel:.3f}% off, limit 2%)",
    )


def _reach_iteration(curve, j_inf, extra_db=3.0, smooth=25):
    kernel = np.ones(smooth) / smooth
    smoothed = np.convolve(curve, kernel, mode="valid")
    hits = np.flatnonzero(smoothed <= j_inf * 10 ** (extra_db / 10))
    return int(hits[0]) if hits.size else len(curve)


def test_criterion_9_proportionate_convergence_ordering():
    rho = preset_paper_scenario("desk", "white").filter2.rho
    base = run_experiment(sparse_static_config(rho, runs=150, seed=36))
    prop = run_experiment(sparse_static_config(rho, runs=150, seed=36, filter2_kind="zapapa"))
    j_inf_base = float(base.j2[-400:].mean())
    j_inf_prop = float(prop.j2[-400:].mean())
    reach_base = _reach_iteration(base.j2, j_inf_base)
    reach_prop = _reach_iteration(prop.j2, j_inf_prop)
    penalty_db = db(j_inf_prop) - db(j_inf_base)
    ok = reach_prop < reach_base and penalty_db <= 1.0
    report(
        9,
        ok,
        f"proportionate branch reaches steady+3dB at n={reach_prop} vs {reach_base} "
        f"(must be strictly smaller); steady-state penalty {penalty_db:+.2f} dB "
        f"(limit 1 dB)",
    )


def test_criterion_10_ar1_qualitative_reproduction(desk_ar):
    cfg, curves = desk_ar
    wf = cfg.steady_window_fraction
    st0 = steady_state_stats(curves, 0, wf)
    st1 = steady_state_stats(curves, 1, wf)
    st2 = steady_state_stats(curves, 2, wf)
    ok_non = abs(db(st0.J) - db(st0.J1)) <= 0.75
    ok_sparse = (st2.J2 < st2.J1) and abs(db(st2.J) - db(st2.J2)) <= 0.75
    ok_semi = st1.J <= min(st1.J1, st1.J2) * 10 ** (0.1 / 10)
    report(
        10,
        ok_non and ok_sparse and ok_semi,
        f"colored-input segments: non-sparse J~J1 ({db(st0.J):.2f} vs {db(st0.J1):.2f} dB): "
        f"{ok_non}; sparse J~J2<J1 ({db(st2.J):.2f} vs J2 {db(st2.J2):.2f}, "
        f"J1 {db(st2.J1):.2f} dB): {ok_sparse}; semi-sparse J <= both "
        f"({db(st1.J):.2f} vs min {db(min(st1.J1, st1.J2)):.2f} dB): {ok_semi}",
    )


def test_preset_sparse_segment_orders_components(desk_white):
    # white-input curve ordering in the sparse segment: the zero-attracting
    # branch must sit below the plain branch
    cfg, curves, _ = desk_white
    st2 = steady_state_stats(curves, 2, cfg.steady_window_fraction)
    assert st2.J2 < st2.J1
