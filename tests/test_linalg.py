import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

from apamix.errors import NumericalError
from apamix.linalg import gram_matrix, sign_vector, solve_spd


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


class TestSignVector:
    def test_basic(self):
        assert np.array_equal(sign_vector([1.5, -2.0, 0.0]), [1.0, -1.0, 0.0])

    def test_all_zero(self):
        assert np.array_equal(sign_vector(np.zeros(5)), np.zeros(5))

    def test_subnormal_scale(self):
        assert np.array_equal(sign_vector([-1e-300, 1e-300]), [-1.0, 1.0])

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=1, max_size=20))
    def test_idempotent(self, values):
        w = np.array(values)
        assert np.array_equal(sign_vector(sign_vector(w)), sign_vector(w))
