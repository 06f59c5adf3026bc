"""Closed-form steady-state predictors for the filter pair and their mix.

All closed forms are specialized to white input, pole 0 of the package's
AR(1) input model, and read its variance alone (every input-covariance
eigenvalue equals it, so each eigendirection is selected with probability
1/L). They model the projection update as independent draws from an
orthogonal direction set; see the README for where that idealization is
and is not an accurate absolute-level predictor of the sliding-window
simulation.

Colored-input prediction is intentionally not offered; simulation covers
the nonzero poles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import AnalysisViolation

__all__ = [
    "TheoryInputs",
    "SteadyStatePrediction",
    "apa_msd_per_tap",
    "zaapa_msd_active",
    "zaapa_msd_inactive",
    "cross_msd_inactive",
    "emse_from_msd",
    "rho_bound_global",
    "rho_bound_sparse_case",
    "mean_weight_deviation",
    "lambda_infinity",
    "combined_emse_prediction",
    "predict_steady_state",
]

_SQRT_2_PI = math.sqrt(2.0 / math.pi)


@dataclass(frozen=True)
class TheoryInputs:
    """Operating point for the closed forms.

    ``p``, ``beta`` and ``inv_r2`` are derived, at their white-input values.
    p = 1/L is the probability that one update selects a given direction,
    and beta = 1-(1-p)^M that M updates select it at least once.
    inv_r2 = E[1/||u||^2] = 1/(variance*(L-2)) for a white Gaussian
    regressor: ||u||^2/variance is chi-square with L degrees of freedom,
    whose reciprocal has mean 1/(L-2) for L >= 3.
    """

    L: int
    K: int
    M: int
    mu: float
    rho: float
    noise_variance: float
    input_variance: float = 1.0
    p: float = field(init=False)
    beta: float = field(init=False)
    inv_r2: float = field(init=False)

    def __post_init__(self):
        if not 0 <= self.K <= self.L:
            raise ValueError("need 0 <= K <= L")
        if not 0 < self.mu < 2:
            raise ValueError("step size mu must lie in (0, 2)")
        if not 0 <= self.rho < math.inf:  # also rejects NaN
            raise ValueError("rho must be finite and >= 0")
        if not 0 <= self.noise_variance < math.inf:
            raise ValueError("noise variance must be finite and >= 0")
        if self.L < 3:
            raise ValueError("analytic E[1/r^2] needs L >= 3")
        if not 0 < self.input_variance < math.inf:
            raise ValueError("input variance must be positive and finite")
        if self.M < 1:
            raise ValueError("M must be >= 1")
        object.__setattr__(self, "inv_r2", 1.0 / (self.input_variance * (self.L - 2)))
        object.__setattr__(self, "p", 1.0 / self.L)
        object.__setattr__(self, "beta", 1.0 - (1.0 - self.p) ** self.M)


def apa_msd_per_tap(ti: TheoryInputs) -> float:
    """Per-direction steady-state weight-error variance of the plain filter."""
    return ti.mu / (2.0 - ti.mu) * ti.noise_variance * ti.inv_r2


def zaapa_msd_active(ti: TheoryInputs) -> float:
    """Active-tap steady-state MSD of the zero-attracting filter.

    The attractor fights adaptation on a nonzero tap, adding a bias/variance
    term that grows as rho^2.
    """
    extra = ti.rho**2 * (2.0 - ti.mu * ti.beta) / (ti.mu**2 * ti.beta**2 * (2.0 - ti.mu))
    return apa_msd_per_tap(ti) + extra


def _zaapa_rms_inactive(ti: TheoryInputs) -> float:
    """Positive root of the inactive-tap steady-state fixed point (the RMS
    deviation of an inactive tap)."""
    mu, beta, rho = ti.mu, ti.beta, ti.rho
    den = mu * (2.0 - mu) * beta
    b = _SQRT_2_PI * rho * (1.0 - mu * beta)
    disc = (2.0 / math.pi) * rho**2 * (1.0 - mu * beta) ** 2 + (
        mu**2 * beta * ti.noise_variance * ti.inv_r2 + rho**2
    ) * den
    return (-b + math.sqrt(disc)) / den


def zaapa_msd_inactive(ti: TheoryInputs) -> float:
    """Inactive-tap steady-state MSD of the zero-attracting filter (exact
    solution of the sign-nonlinearity fixed point, no small-rho truncation)."""
    return _zaapa_rms_inactive(ti) ** 2


def cross_msd_inactive(ti: TheoryInputs) -> float:
    """Inactive-tap cross deviation, using the exact inactive-tap RMS."""
    mu, beta, rho = ti.mu, ti.beta, ti.rho
    num = mu**2 * ti.noise_variance * beta * ti.inv_r2
    den = mu * (2.0 - mu) * beta
    if rho > 0:
        den += rho * (1.0 - mu * beta) * _SQRT_2_PI / _zaapa_rms_inactive(ti)
    return num / den


def emse_from_msd(
    msd_active: float, msd_inactive: float, K: int, L: int, input_variance: float = 1.0
) -> float:
    """Sum per-tap deviations against the (white) input eigenvalues."""
    if not 0 <= K <= L:
        raise ValueError("need 0 <= K <= L")
    return input_variance * (K * msd_active + (L - K) * msd_inactive)


def rho_bound_global(ti: TheoryInputs) -> Optional[float]:
    """Largest attractor strength for which the zero-attracting filter's
    EMSE does not exceed the plain filter's.

    Returns ``None`` when the bound's denominator is non-positive and the
    closed form is undefined (e.g. K=0, where the attractor helps at every
    strength).
    """
    mu, beta = ti.mu, ti.beta
    L, K = ti.L, ti.K
    num = (
        (8.0 / math.pi)
        * (L - K) ** 2
        * (1.0 - mu * beta) ** 2
        * mu**3
        * beta**2
        * ti.noise_variance
        * ti.inv_r2
    )
    C = (
        K * (L - K) * (2.0 - mu * beta) * ((8.0 / math.pi) * (1.0 - mu * beta) ** 2 + 2.0 * mu * (2.0 - mu) * beta)
        + K**2 * (2.0 - mu * beta) ** 2 * (2.0 - mu)
        - (L - K) ** 2 * (2.0 - mu) * mu**2 * beta**2
    )
    if C <= 0:
        return None
    return math.sqrt(num / C)


def rho_bound_sparse_case(ti: TheoryInputs) -> float:
    """Attractor strength below which an inactive tap's own deviation stays
    below its cross deviation (the fully-sparse regime threshold)."""
    mu, beta = ti.mu, ti.beta
    num = (2.0 / math.pi) * mu**2 * (1.0 - mu * beta) ** 2 * beta * ti.noise_variance * ti.inv_r2
    den = mu * (2.0 - mu) * beta + (2.0 / math.pi) * (1.0 - mu * beta) ** 2
    return math.sqrt(num / den)


def mean_weight_deviation(ti: TheoryInputs, w_opt: np.ndarray) -> np.ndarray:
    """Steady-state mean weight deviation of the zero-attracting filter:
    (rho / (mu*beta)) * sign(w_opt) on active taps, zero elsewhere."""
    w_opt = np.asarray(w_opt, dtype=float)
    return ti.rho / (ti.mu * ti.beta) * np.sign(w_opt)


def lambda_infinity(
    J1: float, J2: float, J12: float, lam_plus: float
) -> tuple[float, str]:
    """Stationary mixing value and regime label from the steady-state EMSEs.

    Regimes: ``non_sparse`` (mix saturates on the plain filter),
    ``sparse_caseI`` (saturates on the zero-attracting filter),
    ``semi_sparse`` / ``sparse_caseII`` (interior stationary point that
    outperforms both components; the label depends on which component
    filter is better).
    """
    if J1 < 0 or J2 < 0:
        raise ValueError("EMSEs must be >= 0")
    if not 0.5 < lam_plus < 1:
        raise ValueError("lam_plus must lie in (0.5, 1)")
    # Cauchy-Schwarz bounds J12 by sqrt(J1*J2) <= max(J1, J2), and a tie is
    # no violation: at rho = 0 both branches are one filter, and the closed
    # forms differ by rounding (J12 lies 1.6e-16 relative above both at the
    # desk preset's K = 4). 1e-12 relative is far above the rounding of
    # their few dozen operations. A tie falls to ``non_sparse``.
    if J12 - max(J1, J2) > 1e-12 * max(J1, J2):
        raise AnalysisViolation(
            "cross-EMSE larger than both component EMSEs; "
            "contradicts the Cauchy-Schwarz bound on the cross term"
        )
    dj1 = J1 - J12
    dj2 = J2 - J12
    if dj1 <= 0:
        return lam_plus, "non_sparse"
    if dj2 <= 0:
        return 1.0 - lam_plus, "sparse_caseI"
    lam = dj2 / (dj1 + dj2)
    lam = min(max(lam, 1.0 - lam_plus), lam_plus)
    return lam, ("semi_sparse" if J2 >= J1 else "sparse_caseII")


def combined_emse_prediction(lam: float, J1: float, J2: float, J12: float) -> float:
    """EMSE of the convex mix at a fixed mixing value."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")
    return lam**2 * J1 + 2.0 * lam * (1.0 - lam) * J12 + (1.0 - lam) ** 2 * J2


@dataclass(frozen=True)
class SteadyStatePrediction:
    """All closed-form steady-state quantities at one operating point."""

    msd_apa: float
    msd_active: float
    msd_inactive: float
    cross_inactive: float
    J1: float
    J2: float
    J12: float
    lam_inf: float
    regime: str
    J_combined: float
    rho_bound: Optional[float]
    rho_bound_sparse: float


def predict_steady_state(ti: TheoryInputs, lam_plus: float) -> SteadyStatePrediction:
    """Assemble the full prediction table for one (system, filter) operating point."""
    lam1 = apa_msd_per_tap(ti)
    msd_a = zaapa_msd_active(ti)
    msd_z = zaapa_msd_inactive(ti)
    cr_z = cross_msd_inactive(ti)
    J1 = emse_from_msd(lam1, lam1, ti.K, ti.L, ti.input_variance)
    J2 = emse_from_msd(msd_a, msd_z, ti.K, ti.L, ti.input_variance)
    # the plain filter's mean deviation vanishes on active taps, so the
    # attractor term drops out of their cross deviation: it is lam1
    J12 = emse_from_msd(lam1, cr_z, ti.K, ti.L, ti.input_variance)
    lam_inf, regime = lambda_infinity(J1, J2, J12, lam_plus)
    return SteadyStatePrediction(
        msd_apa=lam1,
        msd_active=msd_a,
        msd_inactive=msd_z,
        cross_inactive=cr_z,
        J1=J1,
        J2=J2,
        J12=J12,
        lam_inf=lam_inf,
        regime=regime,
        J_combined=combined_emse_prediction(lam_inf, J1, J2, J12),
        rho_bound=rho_bound_global(ti),
        rho_bound_sparse=rho_bound_sparse_case(ti),
    )
