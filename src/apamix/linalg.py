"""Dense linear algebra for the small SPD systems inside every filter update.

Projection orders are tiny (M <= 16 in every scenario), so everything here
is plain float64 numpy: the solve factors with numpy's Cholesky and
substitutes with the factor; no sparse or blocked-code machinery.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

__all__ = ["gram_matrix", "solve_spd", "sign_vector"]


def gram_matrix(U: np.ndarray) -> np.ndarray:
    """Return ``U^T U`` for an L-by-M data matrix.

    Parameters
    ----------
    U : ndarray, shape (L, M)
        Data matrix whose columns are regressors.

    Returns
    -------
    ndarray, shape (M, M)
        The (symmetric, positive semi-definite) Gram matrix.
    """
    U = np.asarray(U, dtype=float)
    if U.ndim != 2 or U.shape[0] < 1 or U.shape[1] < 1:
        raise ValueError(f"expected a 2-d L-by-M matrix, got shape {U.shape}")
    if not np.isfinite(U).all():
        raise ValueError("data matrix contains non-finite entries")
    return U.T @ U


def solve_spd(A: np.ndarray, b: np.ndarray, eps: float = 0.0) -> np.ndarray:
    """Solve ``(A + eps*I) x = b`` for symmetric positive (semi-)definite A.

    Uses a Cholesky factorization; `eps >= 0` is the diagonal loading that
    makes a PSD Gram matrix strictly positive definite.

    Raises
    ------
    ValueError
        On dimension mismatch, non-finite entries, or a grossly
        asymmetric ``A``.
    NumericalError
        If the factorization fails (matrix not PD even after loading).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if b.shape != (A.shape[0],):
        raise ValueError(f"rhs shape {b.shape} does not match matrix {A.shape}")
    if eps < 0:
        raise ValueError("eps must be non-negative")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("non-finite entries in linear system")
    scale = np.abs(A).max()
    if scale > 0 and np.abs(A - A.T).max() > 1e-8 * scale:
        raise ValueError("matrix is not symmetric")

    M = A.shape[0]
    try:
        C = np.linalg.cholesky(A + eps * np.eye(M))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Cholesky factorization failed: {exc}") from exc
    return np.linalg.solve(C.T, np.linalg.solve(C, b))


def sign_vector(w: np.ndarray) -> np.ndarray:
    """Componentwise sign with ``sign(0) = 0``.

    The zero convention keeps the zero attractor from perturbing taps that
    are exactly zero (e.g. freshly initialized weights).
    """
    return np.sign(np.asarray(w, dtype=float))
