"""Dense linear algebra for the small SPD systems inside every filter update.

Projection orders are tiny (M <= 16 in every scenario), so everything here
is plain float64 numpy: the solve factors with numpy's Cholesky and
substitutes with the factor; no sparse or blocked-code machinery.

:func:`invert_spd_batch` inverts many small loaded Grams at once, the
chunk engine's whole sub-block of samples in one call. numpy's batched
routines call LAPACK once per matrix, about a microsecond for a 4-by-4
system, so instead the factorization runs over the batch: every step of
Cholesky, triangular inversion and ``T^T T`` is one elementwise numpy
operation on all matrices of the batch. Each matrix's result is thus the
same, bit for bit, whatever else is in the batch.
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


def invert_spd_batch(out: np.ndarray, eps: float) -> np.ndarray:
    """Overwrite a batch of SPD matrices A with the entries of ``(A + eps*I)^-1``.

    Parameters
    ----------
    out : ndarray, shape (M, M, *batch)
        On entry, ``out[a, b]`` for ``b <= a`` holds entry (a, b) of every
        matrix of the batch, the lower triangle of A; the upper triangle is
        not read. On return, ``out[a, b]`` is entry (a, b) of the inverses.
        It is also the work space, besides one scratch array of M rows: the
        Cholesky factor C of ``A + eps*I`` overwrites its lower triangle,
        then ``T = C^-1``, column by column, and then ``T^T T``.
    eps : float
        Diagonal loading added to every matrix.

    Returns
    -------
    ndarray of bool, the batch shape
        True where a Cholesky pivot was not positive: that matrix is not
        positive definite, and its result is not finite. A NaN pivot, from
        a matrix with NaN entries, is not flagged. A matrix never affects
        the result of another.
    """
    M = out.shape[0]
    for a in range(M):
        out[a, a] += eps
    tmp = np.empty(out.shape[1:])  # a product of up to M rows of the batch
    bad = np.zeros(out.shape[2:], dtype=bool)
    with np.errstate(invalid="ignore", divide="ignore"):  # flagged in ``bad`` instead
        # Cholesky, left-looking: column j of C from A's and C's earlier
        # columns; the diagonal keeps 1/C[j, j], which T needs too
        for j in range(M):
            col = out[j:, j]
            for k in range(j):
                col -= np.multiply(out[j:, k], out[j, k], out=tmp[j:])
            bad |= col[0] <= 0
            np.sqrt(col[0], out=col[0])
            np.divide(1.0, col[0], out=col[0])
            col[1:] *= col[0]
        # T = C^-1, column by column: T[i, j] = -T[i, i] * sum_k C[i, k] T[k, j],
        # k from j to i-1, accumulated as z = -sum into the column's own slots
        for j in range(M - 1):
            z = out[j + 1 :, j]
            z *= -out[j, j]  # not np.negative(z, out=z): numpy 2.4 garbles a strided z
            for k in range(j + 1, M):
                z[k - j - 1] *= out[k, k]  # now T[k, j]
                z[k - j :] -= np.multiply(out[k + 1 :, k], z[k - j - 1], out=tmp[k + 1 :])
        # X = T^T T, row a from T's columns a..M-1: X[a, b] = sum_k T[k, a] T[k, b]
        # over k >= b, into the upper triangle; T's column a is then free for
        # X's lower triangle
        for a in range(M):
            row = out[a, a:]
            row[0] *= row[0]
            for k in range(a + 1, M):
                np.multiply(out[k, a], out[k, k], out=row[k - a])
                row[: k - a] += np.multiply(out[k, a], out[k, a:k], out=tmp[: k - a])
            out[a + 1 :, a] = row[1:]
    return bad

