"""Dense linear algebra for the small SPD systems inside every filter update.

Projection orders are tiny (M <= 16 in every scenario), so everything here
is plain float64 numpy: the solve factors with numpy's Cholesky and
substitutes with the factor; no sparse or blocked-code machinery.

:func:`invert_spd_batch` inverts many small loaded Grams at once, the
chunk engine's whole sub-block of samples in one call. numpy's batched
routines call LAPACK once per matrix, about a microsecond for a 4-by-4
system, so instead one Gauss-Jordan sweep without pivoting (Goodnight's
SWEEP operator; positive definiteness keeps every pivot positive) runs
over the batch, each step one elementwise numpy operation on all its
matrices. Each matrix's result is thus the same, bit for bit, whatever
else is in the batch.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

__all__ = ["gram_matrix", "solve_spd", "invert_spd_batch"]


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
        On an empty ``A``, dimension mismatch, non-finite entries, or a
        grossly asymmetric ``A``.
    NumericalError
        If the factorization fails (matrix not PD even after loading).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise ValueError(f"expected a non-empty square matrix, got shape {A.shape}")
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


def invert_spd_batch(out: np.ndarray, eps: float) -> np.ndarray:
    """Overwrite a batch of SPD matrices A with the entries of ``(A + eps*I)^-1``.

    Parameters
    ----------
    out : ndarray, shape (M, M, *batch)
        On entry, ``out[a, b]`` holds entry (a, b) of every matrix A of the
        batch, which must be exactly symmetric: both triangles are read as
        they are. On return, ``out[a, b]`` is entry (a, b) of the inverses,
        exactly symmetric. It is also the work space, besides one scratch
        array of M rows: one Gauss-Jordan sweep without pivoting turns
        ``A + eps*I`` into its inverse in place, pivot by pivot, and each
        pair of mirrored entries of the result is replaced by their mean.
    eps : float
        Diagonal loading added to every matrix.

    Returns
    -------
    ndarray of bool, the batch shape
        True where a pivot was not positive: that matrix is not positive
        definite, and its result is NaN. A NaN pivot, from a matrix with
        NaN entries, is not flagged. A matrix never affects the result of
        another.
    """
    M = out.shape[0]
    for a in range(M):
        out[a, a] += eps
    tmp = np.empty(out.shape[1:])  # a multiple of one row of the batch
    bad = np.zeros(out.shape[2:], dtype=bool)
    # Gauss-Jordan, in place: pivot k divides row k by the pivot and removes
    # column k from every other row; column k, no longer needed, then holds
    # the inverse's entries
    for k in range(M):
        low = out[k, k] <= 0
        bad |= low
        piv = np.where(low, np.nan, out[k, k])  # a NaN pivot turns the whole matrix NaN
        out[k, k] = 1.0
        out[k] /= piv
        for i in range(M):
            if i != k:
                np.multiply(out[i, k], out[k], out=tmp)
                out[i, k] = 0.0
                out[i] -= tmp
    # Mirrored entries differ by rounding. If the result inverts A + D for a
    # small D that is not symmetric, their mean inverts A + (D + D^T)/2 to
    # first order, where a copied triangle need not invert a nearby matrix:
    # on ill-conditioned windows the engine then strays from the reference
    for a in range(M):
        out[a, a + 1 :] = out[a + 1 :, a] = (out[a, a + 1 :] + out[a + 1 :, a]) / 2
    return bad
