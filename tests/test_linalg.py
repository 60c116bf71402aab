"""Decomposition and solve tests, cross-checked by independent oracles:
characteristic-polynomial roots for the eigenvalues, conjugate gradient for
the shifted solve.  The solves take a GramMatrix, so raw matrices are wrapped
in one; its constructor is where malformed input is rejected."""

import numpy as np
import pytest

from krstab.kernels import GramMatrix
from krstab.linalg import (
    DiagnosticsError,
    InconsistentSystemError,
    pinv_solve,
    regularized_solve,
    sym_eigen,
)


def charpoly_roots(a: np.ndarray) -> np.ndarray:
    """Eigenvalue oracle: Faddeev-LeVerrier recursion gives the
    characteristic polynomial from traces alone; its roots come from the
    companion matrix, an entirely different path than a symmetric solver."""
    n = a.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(a)
    c = 1.0
    for k in range(1, n + 1):
        m = a @ (m + c * np.eye(n))
        c = -np.trace(m) / k
        coeffs.append(c)
    return np.sort(np.roots(coeffs).real)[::-1]


def cg_solve(a: np.ndarray, y: np.ndarray, tol: float = 1e-13) -> np.ndarray:
    """Conjugate gradient oracle for SPD systems."""
    x = np.zeros_like(y)
    r = y - a @ x
    p = r.copy()
    rs = float(r @ r)
    for _ in range(20 * len(y)):
        ap = a @ p
        alpha = rs / float(p @ ap)
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = float(r @ r)
        if np.sqrt(rs_new) <= tol * (1.0 + float(np.max(np.abs(y)))):
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x


class TestSymEigen:
    def test_identity(self):
        eig = sym_eigen(GramMatrix(np.eye(2)))
        np.testing.assert_allclose(eig.eigenvalues, [1.0, 1.0])

    def test_diagonal_descending(self):
        eig = sym_eigen(GramMatrix(np.diag([0.0, 2.0])))
        np.testing.assert_allclose(eig.eigenvalues, [2.0, 0.0], atol=1e-15)

    def test_against_charpoly_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            b = rng.normal(size=(5, 5))
            a = (b + b.T) / 2.0
            eig = sym_eigen(GramMatrix(a))
            np.testing.assert_allclose(eig.eigenvalues, charpoly_roots(a), atol=1e-7)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            b = rng.normal(size=(n, n))
            a = (b + b.T) / 2.0
            eig = sym_eigen(GramMatrix(a))
            q, w = eig.eigenvectors, eig.eigenvalues
            np.testing.assert_allclose(q @ np.diag(w) @ q.T, a, atol=1e-12)
            np.testing.assert_allclose(q.T @ q, np.eye(n), atol=1e-12)
            assert np.all(np.diff(w) <= 1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            GramMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            GramMatrix(np.ones((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            GramMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestRegularizedSolve:
    def test_scalar_case(self):
        np.testing.assert_allclose(regularized_solve(GramMatrix([[1.0]]), 1.0, [2.0]), [1.0])

    def test_zero_matrix(self):
        x = regularized_solve(GramMatrix(np.zeros((2, 2))), 2.0, [4.0, 6.0])
        np.testing.assert_allclose(x, [2.0, 3.0])

    def test_against_cg_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 15))
            b = rng.normal(size=(n, n))
            a = b @ b.T
            y = rng.normal(size=n)
            c = float(10.0 ** rng.uniform(-3, 1))
            x = regularized_solve(GramMatrix(a), c, y)
            np.testing.assert_allclose(x, cg_solve(a + c * np.eye(n), y), atol=1e-9)

    def test_residual_postcondition(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(1, 20))
            b = rng.normal(size=(n, n))
            a = b @ b.T
            y = rng.uniform(-2, 2, n)
            c = float(10.0 ** rng.uniform(-4, 1))
            x = regularized_solve(GramMatrix(a), c, y)
            resid = np.max(np.abs((a + c * np.eye(n)) @ x - y))
            assert resid <= 1e-9 * (1.0 + np.max(np.abs(y)))

    def test_matches_pinv_on_shifted_system(self):
        rng = np.random.default_rng(5)
        b = rng.normal(size=(6, 6))
        a = b @ b.T
        y = rng.normal(size=6)
        x1 = regularized_solve(GramMatrix(a), 0.5, y)
        x2 = pinv_solve(GramMatrix(a + 0.5 * np.eye(6)), y)
        np.testing.assert_allclose(x1, x2, atol=1e-9)

    def test_inverse_norm_bounded_by_shift(self):
        # ||(A + cI)^{-1} y|| <= ||y|| / c for PSD A
        rng = np.random.default_rng(6)
        for _ in range(20):
            b = rng.normal(size=(5, 5))
            a = b @ b.T
            y = rng.normal(size=5)
            c = float(10.0 ** rng.uniform(-3, 1))
            x = regularized_solve(GramMatrix(a), c, y)
            assert np.linalg.norm(x) <= np.linalg.norm(y) / c * (1 + 1e-12)

    def test_rejects_nonpositive_shift(self):
        with pytest.raises(ValueError):
            regularized_solve(GramMatrix(np.eye(2)), 0.0, [1.0, 1.0])

    def test_rejects_wrong_rhs_shape(self):
        with pytest.raises(ValueError):
            regularized_solve(GramMatrix(np.eye(2)), 1.0, [1.0, 1.0, 1.0])

    @pytest.mark.parametrize(
        "rhs",
        [[np.inf, 1.0], [np.nan, 1.0], [[1.0, 1.0], [1.0, -np.inf]]],
        ids=["inf", "nan", "block"],
    )
    def test_rejects_nonfinite_rhs_before_factorizing(self, rhs):
        g = GramMatrix([[2.0, 1.0], [1.0, 2.0]])
        with pytest.raises(ValueError, match="rhs must be finite"):
            regularized_solve(g, 0.1, rhs)
        assert "eigen" not in vars(g)  # no factorization, no product

    def test_shift_within_the_psd_tolerance_of_a_singular_matrix_raises(self):
        # The PSD check leaves a computed eigenvalue of this rank-1 G only
        # within tau = 1e-10 * 3 * 1 of 0, so a shift of 1e-30 cannot show
        # that G + shift * I is positive definite; nor can one column of a
        # block whose other shifts could.
        g = GramMatrix(np.ones((3, 3)))
        assert g.psd_tol == 3e-10
        for shift, rhs in ((1e-30, [1.0, 2.0, 3.0]), (np.array([1.0, 1e-30]), np.ones((3, 2)))):
            with pytest.raises(DiagnosticsError, match="does not exceed the PSD tolerance"):
                regularized_solve(g, shift, rhs)
        # A shift above tau solves, to the accuracy its conditioning allows.
        x = regularized_solve(g, 1e-9, [1.0, -1.0, 0.0])
        np.testing.assert_allclose(x, [1e9, -1e9, 0.0], rtol=0, atol=1e-6 * 1e9)


class TestPinvSolve:
    def test_scalar(self):
        np.testing.assert_allclose(pinv_solve(GramMatrix([[1.0]]), [3.0]), [3.0])

    @pytest.mark.parametrize("rhs", [[np.nan, 1.0], [1.0, -np.inf]], ids=["nan", "inf"])
    def test_rejects_nonfinite_rhs_before_factorizing(self, rhs):
        # A nan residual compares False against the tolerance, so the
        # residual test alone would return nan silently.
        g = GramMatrix([[2.0, 1.0], [1.0, 2.0]])
        with pytest.raises(ValueError, match="rhs must be finite"):
            pinv_solve(g, rhs)
        assert "eigen" not in vars(g)

    def test_rank_deficient_consistent(self):
        a = np.ones((2, 2))
        np.testing.assert_allclose(pinv_solve(GramMatrix(a), [2.0, 2.0]), [1.0, 1.0])

    def test_rank_deficient_inconsistent_raises(self):
        with pytest.raises(InconsistentSystemError, match="residual"):
            pinv_solve(GramMatrix(np.ones((2, 2))), [1.0, 2.0])

    def test_minimal_norm_among_solutions(self):
        # null-space translates of the pinv solution are never shorter
        rng = np.random.default_rng(7)
        for _ in range(20):
            n, r = 6, 3
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            w = np.concatenate([np.abs(rng.normal(size=r)) + 0.5, np.zeros(n - r)])
            a = q @ np.diag(w) @ q.T
            a = (a + a.T) / 2.0
            y = a @ rng.normal(size=n)  # consistent by construction
            x = pinv_solve(GramMatrix(a), y)
            for _ in range(10):
                z = x + q[:, r:] @ rng.normal(size=n - r)
                assert np.linalg.norm(x) <= np.linalg.norm(z) + 1e-10

    def test_full_rank_matches_direct(self):
        rng = np.random.default_rng(8)
        b = rng.normal(size=(5, 5))
        a = b @ b.T + np.eye(5)
        y = rng.normal(size=5)
        np.testing.assert_allclose(pinv_solve(GramMatrix(a), y), np.linalg.solve(a, y), atol=1e-10)

    def test_zero_matrix_zero_rhs(self):
        x = pinv_solve(GramMatrix(np.zeros((3, 3))), np.zeros(3))
        np.testing.assert_allclose(x, np.zeros(3))
