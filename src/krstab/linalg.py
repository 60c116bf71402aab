"""Symmetric eigendecompositions and the two solves routed through them, and
the low-rank factor and solve of the thm1 harness.

Dense route: every solve takes a :class:`~krstab.kernels.GramMatrix`.  Its
constructor validates the entries once, and its ``eigen`` property
factorizes them once, on first use, through :func:`sym_eigen`; so every
solve against one Gram matrix (ridge fits, minimal-norm interpolants,
operator bounds) reuses one cached decomposition.  :func:`regularized_solve`
has one path, on an (n, k) block of right-hand sides: each side of the
backtransform, Q^T Y and Q Z, is one matrix-matrix product (level-3 BLAS),
and a single vector is solved as a one-column block with the same bits as
the matrix-vector form.  A block may carry one shift per column, so the
thm2 harness makes one block per run of each of its three solves (the
shrinkage solves, the fits and the noise solves), over every t and trial
at once.  Problem sizes are desk scale (n up to a few thousand), hence
direct dense methods.

Low-rank route: :func:`pivoted_cholesky` builds G ~ L L^T from n * r kernel
values and :func:`low_rank_solve` solves (L L^T + shift I) x = y through an
r x r system.  Only ``run_thm1`` takes it, per row; thm2, ``fit``,
``interpolate``, ``spectrum`` and ``bounds`` take the dense route.  A thm1
row goes dense when one of four limits fails; :mod:`krstab.experiments`
states them, with their constants and the measurements behind them.

The route's distance takes G @ alpha as L (L^T alpha), so a low-rank row
evaluates kernel values only in its r pivot columns and against the
target's anchors.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable
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


def regularized_solve(g: GramMatrix, shift, rhs) -> np.ndarray:
    """Solve ``(G + shift*I) x = rhs`` for the GramMatrix ``g``, shift > 0.

    ``rhs`` is one vector (n,) or a block (n, k) of k right-hand sides; the
    result has the shape of ``rhs``.  ``shift`` is one positive scalar for
    every column, or a vector of k positive shifts, one per column, so that
    one block holds right-hand sides of several ridge parameters.  There is
    one path: a vector is solved as a one-column block,
    ``Q @ ((Q.T @ Y) / (w[:, None] + shift))`` through ``g.eigen``, so
    repeated solves against one Gram matrix cost one backtransform (two
    matrix products) each, and each column's divisor is what a solve of that
    column alone would use.  A raw symmetric PSD array goes through
    ``GramMatrix(a)``, which also gives it the PSD check.
    """
    shifts = np.asarray(shift, dtype=float)
    if shifts.ndim > 1 or not np.all(shifts > 0):
        raise ValueError(f"shift must be positive, one value or one per column, got {shift}")
    y = np.asarray(rhs, dtype=float)
    if y.ndim not in (1, 2) or y.shape[0] != g.n:
        raise ValueError(f"rhs has shape {y.shape}, expected ({g.n},) or ({g.n}, k)")
    block = y.reshape(g.n, -1)
    if shifts.ndim == 1 and shifts.shape != (block.shape[1],):
        raise ValueError(f"got {shifts.shape[0]} shifts for {block.shape[1]} right-hand sides")
    eig = g.eigen
    z = eig.eigenvectors.T @ block
    return (eig.eigenvectors @ (z / (eig.eigenvalues[:, None] + shifts))).reshape(y.shape)


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


def pivoted_cholesky(
    diag, column: Callable[[int], np.ndarray], max_rank: int, tol: float
) -> np.ndarray | None:
    """Greedy pivoted Cholesky factor L, shape (n, r), with G ~ L L^T.

    ``diag`` is the diagonal of the n x n PSD matrix G and ``column(p)`` its
    column p; each step pivots on the largest diagonal entry of the residual
    G - L L^T, so r steps read r columns and n * r entries of G.  The
    factor is returned once the residual's trace is at most ``tol``
    (Harbrecht, Peters and Schneider, Appl. Numer. Math. 2012), and ``None``
    once ``max_rank`` pivots have not brought it there.  The factor's storage
    grows by doubling, so it holds at most 2 * n * r values, never n x n.
    """
    resid = np.array(diag, dtype=float)
    rows = np.empty((min(max_rank, 32), resid.shape[0]))  # L^T, one row per pivot
    k = 0
    while float(resid.sum()) > tol:
        if k == max_rank:
            return None
        if k == rows.shape[0]:
            rows = np.concatenate([rows, np.empty_like(rows)])[:max_rank]
        p = int(resid.argmax())
        col = np.subtract(column(p), rows[:k].T @ rows[:k, p], out=rows[k])
        col /= math.sqrt(resid[p])
        resid -= col * col
        k += 1
    return rows[:k].T


def low_rank_solve(factor: np.ndarray, shift: float, rhs) -> np.ndarray:
    """Solve ``(L L^T + shift*I) x = rhs`` for the (n, r) ``factor`` L, shift > 0.

    Sherman-Morrison-Woodbury: x = (y - L (L^T L + shift I)^{-1} L^T y) / shift,
    one r x r system (Fine and Scheinberg, JMLR 2001).  The subtraction loses
    up to a factor 1 + lambda_max(L^T L) / shift <= 1 + trace / shift of
    relative accuracy, so callers bound that ratio.
    """
    if not shift > 0:
        raise ValueError(f"shift must be positive, got {shift}")
    y = np.asarray(rhs, dtype=float)
    small = factor.T @ factor
    small[np.diag_indices_from(small)] += shift
    return (y - factor @ np.linalg.solve(small, factor.T @ y)) / shift
