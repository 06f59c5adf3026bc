"""Adaptive convex mixing of two filter outputs.

The mixing weight lam = sigmoid(a) is driven by a stochastic gradient step
on the combined squared output error; a is clipped to [-a_plus, a_plus] so
lam never saturates to exactly 0 or 1 and can always move back.
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
    "update_a",
    "combined_weight",
]


def lambda_of(a: float) -> float:
    """Sigmoid 1 / (1 + exp(-a))."""
    return 1.0 / (1.0 + math.exp(-a))


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


def update_a(state: CombinationState, e: float, y1: float, y2: float) -> CombinationState:
    """One gradient step on the mixing variable, then clip.

    The increment is mu_a * e * (y1 - y2) * lam * (1 - lam): the derivative
    of the squared combined error with respect to a, up to sign.
    """
    if not (math.isfinite(e) and math.isfinite(y1) and math.isfinite(y2)):
        raise ValueError("non-finite inputs to the mixing update")
    lam = state.lam
    a = state.a + state.mu_a * e * (y1 - y2) * lam * (1.0 - lam)
    a = min(max(a, -state.a_plus), state.a_plus)
    return CombinationState(a=a, a_plus=state.a_plus, mu_a=state.mu_a)


def combined_weight(lam: float, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """Equivalent weight vector lam*w1 + (1-lam)*w2 of the combined filter."""
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    if w1.shape != w2.shape:
        raise ValueError(f"weight shapes differ: {w1.shape} vs {w2.shape}")
    return lam * w1 + (1.0 - lam) * w2
