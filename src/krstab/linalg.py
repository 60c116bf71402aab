"""Symmetric eigendecompositions and the two solves routed through them.

Every solve takes a :class:`~krstab.kernels.GramMatrix`.  Its constructor
validates the entries once, and its ``eigen`` property factorizes them once,
on first use, through :func:`sym_eigen`; so every solve against one Gram
matrix (ridge fits, minimal-norm interpolants, operator bounds) reuses one
cached decomposition.  :func:`regularized_solve` also takes an (n, k) block
of right-hand sides: each side of the backtransform, Q^T Y and Q Z, is then
one matrix-matrix product (level-3 BLAS) instead of k matrix-vector
products, and the thm2 harness fits all trials of one t as one such block
and takes their H-distances as one block quadratic form (``rkhs.gram_norm``).
Problem sizes are desk scale (n up to a few thousand), hence direct dense
methods throughout.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .kernels import GramMatrix

# pinv_solve treats eigenvalues at or below this fraction of the largest as zero.
_RANK_TOL = 1e-10


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


def sym_eigen(g: GramMatrix) -> EigenDecomposition:
    """Full eigendecomposition of the entries of the GramMatrix ``g``.

    ``g`` was checked square, finite and symmetric when it was built; no PSD
    check is made here.  A raw symmetric PSD array goes through
    ``GramMatrix(a)``, whose ``eigen`` calls this once, caches the result
    and adds the PSD check.
    """
    w, q = np.linalg.eigh(g.entries)
    return EigenDecomposition(w[::-1].copy(), q[:, ::-1].copy())


def regularized_solve(g: GramMatrix, shift: float, rhs) -> np.ndarray:
    """Solve ``(G + shift*I) x = rhs`` for the GramMatrix ``g``, shift > 0.

    ``rhs`` is one vector (n,) or a block (n, k) of k right-hand sides; the
    result has the shape of ``rhs``.  Goes through ``g.eigen``, so repeated
    solves against one Gram matrix cost one backtransform each, and a block
    is ``Q @ ((Q.T @ Y) / (w + shift)[:, None])``: two matrix-matrix
    products.  A raw symmetric PSD array goes through ``GramMatrix(a)``,
    which also gives it the PSD check.
    """
    if not shift > 0:
        raise ValueError(f"shift must be positive, got {shift}")
    y = np.asarray(rhs, dtype=float)
    if y.ndim not in (1, 2) or y.shape[0] != g.n:
        raise ValueError(f"rhs has shape {y.shape}, expected ({g.n},) or ({g.n}, k)")
    eig = g.eigen
    z = eig.eigenvectors.T @ y
    denom = eig.eigenvalues + shift
    if y.ndim == 2:
        denom = denom[:, None]
    return eig.eigenvectors @ (z / denom)


def pinv_solve(g: GramMatrix, rhs) -> np.ndarray:
    """Minimal-norm solution of ``G x = rhs`` for the GramMatrix ``g``.

    Eigenvalues of ``g.eigen`` at or below 1e-10 times the largest are
    treated as zero.  Raises :class:`InconsistentSystemError` when the
    residual exceeds ``1e-6 * (1 + max|rhs|)``, i.e. when ``rhs`` has a
    component outside the numerical range of G.  A raw symmetric PSD array
    goes through ``GramMatrix(a)``, which also gives it the PSD check.
    """
    y = np.asarray(rhs, dtype=float)
    if y.shape != (g.n,):
        raise ValueError(f"rhs has shape {y.shape}, expected ({g.n},)")
    eig = g.eigen
    w = eig.eigenvalues
    keep = w > _RANK_TOL * max(float(w[0]), 0.0)
    z = eig.eigenvectors.T @ y
    inv = np.zeros_like(w)
    np.divide(1.0, w, out=inv, where=keep)
    x = eig.eigenvectors @ (inv * z)
    resid = float(np.max(np.abs(g.entries @ x - y)))
    tol = 1e-6 * (1.0 + float(np.max(np.abs(y))))
    if resid > tol:
        raise InconsistentSystemError(
            f"constraint system is inconsistent: residual {resid:.3e} "
            f"exceeds {tol:.3e} (numerical rank {int(np.sum(keep))} of {w.shape[0]})"
        )
    return x
