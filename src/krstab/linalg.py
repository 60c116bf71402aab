"""Symmetric eigendecompositions and the two solves routed through them.

Every downstream solve (ridge fits, minimal-norm interpolants, operator
bounds) reuses one cached decomposition per Gram matrix, so this module is
the single numerical kernel of the package.  Problem sizes are desk scale
(n up to a few thousand), hence direct dense methods throughout.
"""

from __future__ import annotations

import dataclasses

import numpy as np


class DiagnosticsError(RuntimeError):
    """A computed quantity failed a numerical sanity check."""


class InconsistentSystemError(DiagnosticsError):
    """A linear constraint system has no solution within tolerance."""


@dataclasses.dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues in descending order, eigenvectors as matching orthonormal
    columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)


def _as_matrix(matrix) -> np.ndarray:
    """Accept a raw 2-D array or anything exposing ``.entries``."""
    return np.asarray(getattr(matrix, "entries", matrix), dtype=float)


def sym_eigen(matrix) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix.

    Rejects non-square, non-finite, or asymmetric input (asymmetry beyond
    1e-12 relative to the largest entry).  A matrix exposing ``.entries`` (a
    GramMatrix) passed these checks when it was built and is not scanned again.
    """
    a = _as_matrix(matrix)
    if not hasattr(matrix, "entries"):
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix has non-finite entries")
        scale = float(np.max(np.abs(a))) if a.size else 0.0
        asym = float(np.max(np.abs(a - a.T))) if a.size else 0.0
        if asym > 1e-12 * scale:
            raise ValueError(
                f"matrix is not symmetric: max asymmetry {asym:.3e} exceeds "
                f"{1e-12 * scale:.3e}"
            )
    w, q = np.linalg.eigh(a)
    return EigenDecomposition(w[::-1].copy(), q[:, ::-1].copy())


def _decomposition(matrix) -> EigenDecomposition:
    if isinstance(matrix, EigenDecomposition):
        return matrix
    eig = getattr(matrix, "eigen", None)
    return eig if eig is not None else sym_eigen(matrix)


def regularized_solve(matrix, shift: float, rhs) -> np.ndarray:
    """Solve ``(A + shift*I) x = rhs`` for symmetric PSD ``A``, shift > 0.

    Goes through the (cached) eigendecomposition, so repeated solves against
    the same matrix cost one backtransform each.
    """
    if not shift > 0:
        raise ValueError(f"shift must be positive, got {shift}")
    y = np.asarray(rhs, dtype=float)
    eig = _decomposition(matrix)
    n = eig.eigenvalues.shape[0]
    if y.shape != (n,):
        raise ValueError(f"rhs has shape {y.shape}, expected ({n},)")
    z = eig.eigenvectors.T @ y
    return eig.eigenvectors @ (z / (eig.eigenvalues + shift))


def pinv_solve(matrix, rhs, rank_tol: float = 1e-10) -> np.ndarray:
    """Minimal-norm solution of ``A x = rhs`` for symmetric PSD ``A``.

    Eigenvalues at or below ``rank_tol`` times the largest eigenvalue are
    treated as zero.  Raises :class:`InconsistentSystemError` when the
    residual exceeds ``1e-6 * (1 + max|rhs|)``, i.e. when ``rhs`` has a
    component outside the numerical range of ``A``.
    """
    a = _as_matrix(matrix)
    y = np.asarray(rhs, dtype=float)
    eig = _decomposition(matrix)
    w = eig.eigenvalues
    if y.shape != (w.shape[0],):
        raise ValueError(f"rhs has shape {y.shape}, expected ({w.shape[0]},)")
    thresh = rank_tol * max(float(w[0]) if w.size else 0.0, 0.0)
    keep = w > thresh
    z = eig.eigenvectors.T @ y
    inv = np.zeros_like(w)
    np.divide(1.0, w, out=inv, where=keep)
    x = eig.eigenvectors @ (inv * z)
    resid = float(np.max(np.abs(a @ x - y))) if y.size else 0.0
    tol = 1e-6 * (1.0 + float(np.max(np.abs(y))) if y.size else 1.0)
    if resid > tol:
        raise InconsistentSystemError(
            f"constraint system is inconsistent: residual {resid:.3e} "
            f"exceeds {tol:.3e} (numerical rank {int(np.sum(keep))} of {w.shape[0]})"
        )
    return x
