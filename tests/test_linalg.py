import numpy as np
import pytest
import scipy.linalg

from apamix.errors import NumericalError
from apamix.linalg import gram_matrix, invert_spd_batch, solve_spd


def gram_bruteforce(U):
    """Entrywise double-loop oracle for the Gram matrix."""
    L, M = U.shape
    G = np.zeros((M, M))
    for i in range(M):
        for j in range(M):
            for k in range(L):
                G[i, j] += U[k, i] * U[k, j]
    return G


class TestGramMatrix:
    def test_identity_columns(self):
        assert np.array_equal(gram_matrix(np.eye(2)), np.eye(2))

    def test_single_column(self):
        G = gram_matrix(np.array([[3.0], [4.0]]))
        assert G.shape == (1, 1)
        assert G[0, 0] == pytest.approx(25.0, abs=1e-12)

    def test_against_bruteforce(self):
        rng = np.random.default_rng(7)
        U = rng.standard_normal((8, 4))
        assert np.allclose(gram_matrix(U), gram_bruteforce(U), rtol=1e-12, atol=1e-14)

    def test_symmetry_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            G = gram_matrix(rng.standard_normal((12, 6)))
            assert np.abs(G - G.T).max() <= 1e-12 * np.linalg.norm(G)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            gram_matrix(np.zeros(3))
        with pytest.raises(ValueError):
            gram_matrix(np.array([[1.0, np.nan]]))


class TestSolveSpd:
    def test_identity(self):
        x = solve_spd(np.eye(2), np.array([1.0, 2.0]), eps=0.0)
        assert np.allclose(x, [1.0, 2.0], atol=1e-14)

    def test_diagonal(self):
        x = solve_spd(np.diag([4.0, 4.0]), np.array([8.0, 4.0]), eps=0.0)
        assert np.allclose(x, [2.0, 1.0], atol=1e-14)

    def test_residual_oracle(self):
        rng = np.random.default_rng(11)
        A = gram_matrix(rng.standard_normal((16, 8)))
        b = rng.standard_normal(8)
        eps = 1e-4
        x = solve_spd(A, b, eps=eps)
        resid = np.linalg.norm((A + eps * np.eye(8)) @ x - b)
        assert resid <= 1e-10 * (np.linalg.norm(A) + eps) * np.linalg.norm(x) + 1e-12

    def test_residual_many_random_instances(self):
        # solve-then-multiply-back over a large batch of random SPD systems
        rng = np.random.default_rng(12)
        for _ in range(10_000):
            M = int(rng.integers(1, 17))
            B = rng.standard_normal((M + 2, M))
            A = B.T @ B
            b = rng.standard_normal(M)
            eps = float(rng.uniform(1e-8, 1e-2))
            x = solve_spd(A, b, eps=eps)
            resid = np.linalg.norm((A + eps * np.eye(M)) @ x - b)
            assert resid <= 1e-10 * (np.linalg.norm(A) + eps) * np.linalg.norm(x) + 1e-12

    def test_matches_scipy_cho_solve(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            M = int(rng.integers(1, 17))
            B = rng.standard_normal((M, M))
            A = B @ B.T + M * np.eye(M)
            b = rng.standard_normal(M)
            eps = float(rng.uniform(0.0, 1e-2))
            ref = scipy.linalg.cho_solve(
                scipy.linalg.cho_factor(A + eps * np.eye(M), lower=True), b
            )
            np.testing.assert_allclose(solve_spd(A, b, eps=eps), ref, rtol=1e-12)

    def test_not_pd_raises_numerical(self):
        A = np.diag([1.0, -1.0])
        with pytest.raises(NumericalError):
            solve_spd(A, np.ones(2), eps=0.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            solve_spd(np.eye(2), np.ones(3))
        with pytest.raises(ValueError):
            solve_spd(np.array([[1.0, np.inf], [np.inf, 1.0]]), np.ones(2))
        with pytest.raises(ValueError):
            solve_spd(np.array([[1.0, 5.0], [0.0, 1.0]]), np.ones(2))
        with pytest.raises(ValueError):
            solve_spd(np.eye(2), np.ones(2), eps=-1.0)
        with pytest.raises(ValueError, match="non-empty"):
            solve_spd(np.zeros((0, 0)), np.zeros(0))


def spd_batch(rng, n, M, cond):
    """n loaded Grams ``A + eps*I`` of order M with condition number ``cond``.

    A is positive semi-definite with eigenvalues spread log-uniformly down to
    0 from a largest one of about M; eps is that largest one over ``cond``.
    Returns A (n, M, M) and eps.
    """
    Qm, _ = np.linalg.qr(rng.standard_normal((n, M, M)))
    lam = M * np.logspace(0, -np.log10(cond), M)
    eps = lam[0] / cond
    lam[-1] = 0.0 if M > 1 else lam[0]
    A = (Qm * lam) @ Qm.mT
    return (A + A.mT) / 2, eps  # exactly symmetric, as invert_spd_batch requires


def invert(A, eps):
    """invert_spd_batch on a stack (n, M, M); returns (n, M, M) and the flags."""
    out = np.moveaxis(A, (-2, -1), (0, 1)).copy()
    bad = invert_spd_batch(out, eps)
    return np.moveaxis(out, (0, 1), (-2, -1)), bad


class TestInvertSpdBatch:
    @pytest.mark.parametrize("M", [1, 2, 3, 4, 8, 16])
    @pytest.mark.parametrize("cond", [1e2, 1e5, 1e8])
    def test_matches_numpy_inverse(self, M, cond):
        # an inverse through a Gauss-Jordan sweep of an SPD matrix has relative
        # error of order M * cond * u (u the unit roundoff); so has
        # np.linalg.inv, hence the factor 20
        A, eps = spd_batch(np.random.default_rng(M), 200, M, cond)
        loaded = A + eps * np.eye(M)
        kappa = np.linalg.cond(loaded)
        assert kappa.max() <= 1.01 * (cond + 1)
        got, bad = invert(A, eps)
        assert not bad.any()
        ref = np.linalg.inv(loaded)
        err = np.abs(got - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))
        assert (err <= 20 * M * kappa * np.finfo(float).eps).all(), err.max()
        assert np.array_equal(got, got.mT)  # symmetric by construction

    @pytest.mark.parametrize("M", [1, 4, 8])
    def test_result_does_not_depend_on_the_batch(self, M):
        A, eps = spd_batch(np.random.default_rng(3), 2000, M, 1e4)
        full, _ = invert(A, eps)
        for n in (1, 7):
            part, _ = invert(A[:n], eps)
            assert np.array_equal(part, full[:n])
        # a batch of two axes, as the chunk engine passes (samples, trials)
        grid, _ = invert(A.reshape(20, 100, M, M), eps)
        assert np.array_equal(grid.reshape(full.shape), full)

    @pytest.mark.parametrize("M", [1, 4, 8])
    def test_strided_view_matches_a_contiguous_batch(self, M):
        # the engine's short last sub-block: the first 7 of 20 samples' Grams
        A, eps = spd_batch(np.random.default_rng(6), 2000, M, 1e4)
        buf = np.moveaxis(A.reshape(20, 100, M, M), (-2, -1), (0, 1)).copy()
        head = buf[:, :, :7].copy()
        bad = invert_spd_batch(buf[:, :, :7], eps)
        assert not bad.any() and not invert_spd_batch(head, eps).any()
        assert np.array_equal(buf[:, :, :7], head)

    def test_nan_matrix_leaves_its_neighbours_unchanged(self):
        A, eps = spd_batch(np.random.default_rng(4), 7, 4, 1e3)
        clean, _ = invert(A, eps)
        A[3] = np.nan
        got, bad = invert(A, eps)
        assert not bad.any()  # a NaN pivot is not flagged
        assert np.isnan(got[3]).all()
        keep = [0, 1, 2, 4, 5, 6]
        assert np.array_equal(got[keep], clean[keep])

    @pytest.mark.parametrize("pivot", [0.0, -1.0])
    def test_pivot_not_positive_is_flagged(self, pivot):
        A = np.tile(np.eye(3), (5, 1, 1))
        A[2, 1, 1] = pivot
        got, bad = invert(A, 0.0)
        assert bad.tolist() == [False, False, True, False, False]
        assert np.array_equal(got[[0, 1, 3, 4]], np.tile(np.eye(3), (4, 1, 1)))
        assert not np.isfinite(got[2]).all()
