"""Adaptive convex combination of affine projection filters for sparse
system identification, with closed-form steady-state predictors and a
Monte-Carlo experiment harness."""

__version__ = "0.1.0"
