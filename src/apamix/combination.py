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
    "mixing_step",
    "update_a",
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
        if not 0 < self.a_plus < math.inf:
            raise ValueError("a_plus must be positive and finite")
        if not 0 < self.mu_a < math.inf:
            raise ValueError("mu_a must be positive and finite")
        if not -self.a_plus <= self.a <= self.a_plus:
            raise ValueError("a outside [-a_plus, a_plus]")
        object.__setattr__(self, "lam", lambda_of(self.a))

    @property
    def lam_plus(self) -> float:
        """Upper end of the reachable mixing range."""
        return lambda_of(self.a_plus)


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

