"""Online weight updates: APA, its zero-attracting and proportionate
variants, and the orthogonal-correction-factor form used as an
equivalence oracle.

These are the reference per-sample implementations; the Monte-Carlo
engine in :mod:`apamix.harness` vectorizes the same arithmetic across
trials and is tested against this module. :func:`gain_matrix` takes a
batch of weight vectors, and the engine calls it directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import DivergenceError
from .linalg import gram_matrix, solve_spd
from .signals import Observation

__all__ = [
    "ProportionateConfig",
    "FilterConfig",
    "FilterState",
    "RegressorBuffer",
    "push",
    "apa_step",
    "za_apa_step",
    "gain_matrix",
    "za_papa_step",
    "nlms_ocf_step",
]

# Orthogonal components with squared norm below this fraction of the raw
# regressor's are treated as zero and their correction factor is skipped.
OCF_SKIP_REL = 1e-12


@dataclass(frozen=True)
class ProportionateConfig:
    """Gain-matrix constants: activation floor rho_p and startup delta."""

    rho_p: float = 0.05
    delta: float = 0.01

    def __post_init__(self):
        if not (0 < self.rho_p < math.inf and 0 < self.delta < math.inf):
            raise ValueError("rho_p and delta must be positive and finite")


@dataclass(frozen=True)
class FilterConfig:
    """Static parameters of one adaptive filter.

    ``M`` is the projection order, ``rho`` the zero-attractor strength (0
    for plain APA) and ``eps`` the diagonal loading of the projection
    solve. ``proportionate`` turns the filter into the proportionate
    variant. The filter length is the scenario's ``L``.
    """

    M: int
    mu: float
    rho: float = 0.0
    eps: float = 0.0
    proportionate: Optional[ProportionateConfig] = None

    def __post_init__(self):
        # mu = 0 (frozen filter) is allowed as a degenerate case; the
        # closed-form predictors require strictly positive mu.
        if not 0 <= self.mu < 2:
            raise ValueError("step size mu must lie in [0, 2)")
        if self.M < 1:
            raise ValueError("projection order M must be >= 1")
        if not (0 <= self.rho < math.inf and 0 <= self.eps < math.inf):  # also rejects NaN
            raise ValueError("rho and eps must be finite and >= 0")


@dataclass(frozen=True)
class FilterState:
    w: np.ndarray
    config: FilterConfig

    @classmethod
    def zeros(cls, config: FilterConfig, L: int) -> "FilterState":
        return cls(w=np.zeros(L), config=config)


@dataclass(frozen=True)
class RegressorBuffer:
    """Last M regressors (columns, newest first) and desired responses."""

    U: np.ndarray  # (L, M)
    d: np.ndarray  # (M,)

    @classmethod
    def zeros(cls, L: int, M: int) -> "RegressorBuffer":
        return cls(U=np.zeros((L, M)), d=np.zeros(M))


def push(buffer: RegressorBuffer, obs: Observation) -> RegressorBuffer:
    """Shift the window by one sample; the newest entry lands in column 0."""
    L, M = buffer.U.shape
    u = np.asarray(obs.u, dtype=float)
    if u.shape != (L,):
        raise ValueError(f"regressor length {u.shape} does not match L={L}")
    U = np.empty_like(buffer.U)
    U[:, 0] = u
    U[:, 1:] = buffer.U[:, : M - 1]
    d = np.empty_like(buffer.d)
    d[0] = obs.d
    d[1:] = buffer.d[: M - 1]
    return RegressorBuffer(U=U, d=d)


def _check_finite(w: np.ndarray) -> np.ndarray:
    if not np.isfinite(w).all():
        raise DivergenceError("update produced non-finite weights")
    return w


def _update(state: FilterState, buffer: RegressorBuffer, gains=None, attract=False) -> FilterState:
    """The body of the three projection steps: the update over the buffered
    window, reshaped by per-tap ``gains`` when given, then, if ``attract``,
    the zero attractor -rho*sign(w) (sign(0) = 0) on the pre-update weights."""
    cfg, w, U = state.config, state.w, buffer.U
    e_vec = buffer.d - U.T @ w
    if gains is None:
        step = U @ solve_spd(gram_matrix(U), e_vec, cfg.eps)
    else:
        GU = gains[:, None] * U
        step = GU @ solve_spd(U.T @ GU, e_vec, cfg.eps)
    updated = w + cfg.mu * step
    if attract:
        updated = updated - cfg.rho * np.sign(w)
    return replace(state, w=_check_finite(updated))


def apa_step(state: FilterState, buffer: RegressorBuffer) -> FilterState:
    """Affine projection update over the buffered window."""
    return _update(state, buffer)


def za_apa_step(state: FilterState, buffer: RegressorBuffer) -> FilterState:
    """APA update plus the zero attractor -rho*sign(w) (sign(0) = 0) on the pre-update weights."""
    return _update(state, buffer, attract=True)


def gain_matrix(w: np.ndarray, rho_p: float, delta: float) -> np.ndarray:
    """Diagonal of the proportionate gain matrix, normalized to mean 1.

    Each tap's raw gain is its magnitude floored at rho_p times the
    largest magnitude (or delta at startup, when all taps are ~0), so no
    tap's update ever stalls completely. Taps lie along the last axis;
    leading axes are a batch of independent weight vectors.
    """
    if not (rho_p > 0 and delta > 0):
        raise ValueError("rho_p and delta must be positive")
    mags = np.abs(np.asarray(w, dtype=float))
    gamma_min = np.maximum(delta, mags.max(axis=-1, keepdims=True))
    gamma = np.maximum(rho_p * gamma_min, mags)
    return gamma / gamma.mean(axis=-1, keepdims=True)


def za_papa_step(state: FilterState, buffer: RegressorBuffer) -> FilterState:
    """Proportionate zero-attracting update: per-tap gains reshape the projection."""
    cfg = state.config
    if cfg.proportionate is None:
        raise ValueError("za_papa_step requires a proportionate config")
    g = gain_matrix(state.w, cfg.proportionate.rho_p, cfg.proportionate.delta)
    return _update(state, buffer, gains=g, attract=True)


def nlms_ocf_step(
    state: FilterState, recent: Sequence[tuple[np.ndarray, float]]
) -> FilterState:
    """Sequential NLMS with orthogonal correction factors.

    ``recent`` holds the last M (regressor, desired) pairs, newest first.
    Each step projects the k-th past regressor onto the complement of the
    newer ones, evaluates the error at the intermediate weights, and takes
    an NLMS step along the orthogonal component. Components with norm
    below ``OCF_SKIP_REL`` times the raw regressor's are skipped.
    """
    cfg = state.config
    if not 1 <= len(recent) <= cfg.M:
        raise ValueError(f"expected between 1 and {cfg.M} recent pairs")
    w = state.w.copy()
    basis: list[tuple[np.ndarray, float]] = []  # kept orthogonal components
    for u_raw, d in recent:
        u_raw = np.asarray(u_raw, dtype=float)
        u_orth = u_raw.copy()
        for b, b_norm2 in basis:
            u_orth -= (u_orth @ b) / b_norm2 * b
        norm2 = float(u_orth @ u_orth)
        raw2 = float(u_raw @ u_raw)
        if norm2 <= OCF_SKIP_REL * raw2 or raw2 == 0.0:
            continue
        e_k = float(d) - float(w @ u_raw)
        w = w + (cfg.mu * e_k / norm2) * u_orth
        basis.append((u_orth, norm2))
    return replace(state, w=_check_finite(w))
