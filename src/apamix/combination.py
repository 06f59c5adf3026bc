"""Adaptive convex mixing of two filter outputs.

The mixing weight lam = sigmoid(a) is driven by a stochastic gradient step
on the combined squared output error; a is clipped to [-a_plus, a_plus] so
lam never saturates to exactly 0 or 1 and can always move back, for every
a_plus that :class:`apamix.harness.MixingConfig` accepts.
:func:`lambda_of` and :func:`mixing_step` work elementwise on arrays, so the
per-sample reference (:func:`update_a`) and the vectorized Monte-Carlo
engine share one implementation of the rule.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "lambda_of",
    "mixing_step",
    "update_a",
]


def lambda_of(a):
    """Sigmoid 1 / (1 + exp(-a)), elementwise."""
    return 1.0 / (1.0 + np.exp(-a))


def mixing_step(a, lam, e, y1, y2, mu_a: float, a_plus: float):
    """One gradient step on the mixing variable, clipped to [-a_plus, a_plus].

    The increment is mu_a * e * (y1 - y2) * lam * (1 - lam): the derivative
    of the squared combined error e with respect to a, up to sign. All of
    a, lam = lambda_of(a), e, y1 and y2 may be arrays of one shape.
    """
    a = a + mu_a * e * (y1 - y2) * lam * (1.0 - lam)
    return np.minimum(np.maximum(a, -a_plus), a_plus)  # np.clip, at half the call cost


def update_a(a: float, e: float, y1: float, y2: float, mu_a: float, a_plus: float) -> float:
    """One clipped gradient step (:func:`mixing_step`) on the mixing variable ``a``."""
    if not (math.isfinite(e) and math.isfinite(y1) and math.isfinite(y2)):
        raise ValueError("non-finite inputs to the mixing update")
    return float(mixing_step(a, lambda_of(a), e, y1, y2, mu_a, a_plus))
