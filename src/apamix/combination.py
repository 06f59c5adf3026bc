"""Adaptive convex mixing of two filter outputs.

The mixing weight lam = sigmoid(a) is driven by a stochastic gradient step
on the combined squared output error; a is clipped to [-a_plus, a_plus] so
lam never saturates to exactly 0 or 1 and can always move back.
:func:`lambda_of` and :func:`mixing_step` work elementwise on arrays, so the
per-sample reference (:func:`update_a`) and the vectorized Monte-Carlo
engine share one implementation of the rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "lambda_of",
    "CombinationState",
    "CombinedOutputs",
    "combine",
    "mixing_step",
    "update_a",
    "combined_weight",
]


def lambda_of(a):
    """Sigmoid 1 / (1 + exp(-a)), elementwise."""
    return 1.0 / (1.0 + np.exp(-a))


@dataclass(frozen=True)
class CombinationState:
    """Mixing variable ``a``, its clip bound, step size, and cached lam."""

    a: float
    a_plus: float = 4.0
    mu_a: float = 100.0
    lam: float = None  # derived

    def __post_init__(self):
        if not self.a_plus > 0:
            raise ValueError("a_plus must be positive")
        if not self.mu_a > 0:
            raise ValueError("mu_a must be positive")
        if not -self.a_plus <= self.a <= self.a_plus:
            raise ValueError("a outside [-a_plus, a_plus]")
        object.__setattr__(self, "lam", lambda_of(self.a))

    @property
    def lam_plus(self) -> float:
        """Upper end of the reachable mixing range."""
        return lambda_of(self.a_plus)


@dataclass(frozen=True)
class CombinedOutputs:
    y: float
    y1: float
    y2: float
    e: float


def combine(lam: float, y1: float, y2: float, d: float) -> CombinedOutputs:
    """Mix the two component outputs and form the overall error."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")
    y = lam * y1 + (1.0 - lam) * y2
    return CombinedOutputs(y=y, y1=y1, y2=y2, e=d - y)


def mixing_step(a, lam, e, y1, y2, mu_a: float, a_plus: float):
    """One gradient step on the mixing variable, clipped to [-a_plus, a_plus].

    The increment is mu_a * e * (y1 - y2) * lam * (1 - lam): the derivative
    of the squared combined error e with respect to a, up to sign. All of
    a, lam = lambda_of(a), e, y1 and y2 may be arrays of one shape.
    """
    a = a + mu_a * e * (y1 - y2) * lam * (1.0 - lam)
    return np.minimum(np.maximum(a, -a_plus), a_plus)  # np.clip, at half the call cost


def update_a(state: CombinationState, e: float, y1: float, y2: float) -> CombinationState:
    """One clipped gradient step (:func:`mixing_step`) on the mixing variable."""
    if not (math.isfinite(e) and math.isfinite(y1) and math.isfinite(y2)):
        raise ValueError("non-finite inputs to the mixing update")
    a = mixing_step(state.a, state.lam, e, y1, y2, state.mu_a, state.a_plus)
    return CombinationState(a=float(a), a_plus=state.a_plus, mu_a=state.mu_a)


def combined_weight(lam: float, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """Equivalent weight vector lam*w1 + (1-lam)*w2 of the combined filter."""
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    if w1.shape != w2.shape:
        raise ValueError(f"weight shapes differ: {w1.shape} vs {w2.shape}")
    return lam * w1 + (1.0 - lam) * w2
