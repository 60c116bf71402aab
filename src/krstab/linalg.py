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
row goes dense when one of five limits fails, as ``experiments._route``
decides; :mod:`krstab.experiments` states them, with their constants and
the derivations and measurements behind them.

The route's distance takes G @ alpha as L (L^T alpha), so a low-rank row
evaluates kernel values only in its r pivot columns and against the
target's anchors.

The module also holds what every other module shares: the diagnostics
errors; :class:`Frozen` and :class:`FrozenValue`, the bases of the
package's immutable classes; and the three readers of a number a library
entry point takes: :func:`_as_count`, the one reading of a sample size,
count, index or seed; :func:`_as_real`, the one reading of a real number
such as lam, t, eps or a kernel width; and :func:`_as_floats`, the one
reading of a numeric array such as points, labels, coefficients, a
right-hand side or a Gram matrix.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .kernels import GramMatrix

# pinv_solve treats eigenvalues at or below this fraction of the largest as zero.
_RANK_TOL = 1e-10
# Numbers to Python that no count or value of the library may be.
_BOOLS = (bool, np.bool_)
# The types a count or real value may have; bool, an int to Python, is refused apart.
_REALS = (int, float, np.integer, np.floating)


def _as_count(value, name: str, low: int | None = 1) -> int:
    """``int(value)`` for an integral number ``value >= low`` (1, or 0 for
    a count that may be empty, or None for any integer, such as a seed).  A
    bool or numpy bool, a non-number, a fraction, nan, inf, an int beyond
    the float range or a smaller value is a ValueError naming ``name``."""
    try:
        integral = isinstance(value, _REALS) and math.isfinite(value) and value == int(value)
    except OverflowError:  # an int beyond the float range
        integral = False
    if isinstance(value, _BOOLS) or not integral or (low is not None and value < low):
        kind = {None: "an", 0: "a nonnegative", 1: "a positive"}[low]
        raise ValueError(f"{name} must be {kind} integer, got {value!r}")
    return int(value)


def _as_real(value, name: str, bound: str = "> 0"):
    """``value`` itself, unconverted, for a finite real number within
    ``bound``: "> 0", ">= 0", or "" for any.  A bool or numpy bool, a
    non-number, nan, inf or an int beyond the float range is a ValueError
    naming ``name``, as is a value outside ``bound``."""
    try:
        finite = isinstance(value, _REALS) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    if isinstance(value, _BOOLS) or not finite:
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if (bound == "> 0" and not value > 0) or (bound == ">= 0" and not value >= 0):
        kind = "positive" if bound == "> 0" else "nonnegative"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return value


def _as_floats(values, name: str, rows: int | None = None) -> np.ndarray:
    """``np.asarray(values, dtype=float)`` for a scalar or array of finite
    real numbers; given ``rows``, for a vector of ``rows`` entries or a
    (rows, k >= 1) block only.  A bool entry, which a float array reads as
    0 or 1, a non-number (a string, None, a nested object or a complex
    number), nan, inf, an int beyond the float range, entries that form no
    rectangular array or another shape is a ValueError naming ``name`` and
    showing the first bad entry or the shape.
    An int, unsigned or float ndarray holds none of the first two, so only
    other inputs, lists among them, are scanned entry by entry."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iuf"):
        try:
            entries = np.asarray(values, dtype=object).flat
        except ValueError:  # arrays of unequal shapes, such as (2, 2) and (2, 3)
            raise ValueError(f"{name}'s entries do not form a rectangular array") from None
        for v in entries:
            if isinstance(v, _BOOLS):
                raise ValueError(f"{name} must not be or hold a bool, got {v!r}")
            if not isinstance(v, _REALS):
                raise ValueError(f"{name} must hold real numbers only, got {v!r}")
    try:
        a = np.asarray(values, dtype=float)
        finite = bool(np.isfinite(a).all())
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ValueError(f"{name} must be finite")
    if rows is not None and (a.ndim not in (1, 2) or a.shape[0] != rows or a.size == 0):
        raise ValueError(
            f"{name} must be a vector of {rows} numbers or a ({rows}, k >= 1) block, "
            f"got shape {a.shape}"
        )
    return a


class DiagnosticsError(RuntimeError):
    """A computed quantity failed a numerical sanity check."""


class InconsistentSystemError(DiagnosticsError):
    """A linear constraint system has no solution within tolerance."""


class Frozen:
    """Base of the immutable classes: ``__init__`` sets each field once
    through ``vars(self)``, as ``functools.cached_property`` caches, and any
    later assignment or deletion raises AttributeError.  Instances compare
    and hash by identity.

    Plain classes, not dataclasses: a dataclass writes its methods as source
    text and compiles them on every import.
    """

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")


class FrozenValue(Frozen):
    """A :class:`Frozen` value: equal to an object of its own class with
    equal fields, and hashed by its fields, which must be hashable."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))


class EigenDecomposition(Frozen):
    """Eigenvalues in descending order, eigenvectors as matching orthonormal
    columns."""

    def __init__(self, eigenvalues: np.ndarray, eigenvectors: np.ndarray) -> None:
        eigenvalues.setflags(write=False)
        eigenvectors.setflags(write=False)
        vars(self).update(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


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
    """Solve ``(G + shift*I) x = rhs`` for the GramMatrix ``g``, 0 < shift < inf.

    ``rhs`` is a finite vector (n,) or block (n, k >= 1) of k right-hand sides; the
    result has the shape of ``rhs``.  ``shift`` is one positive finite scalar for
    every column, or a vector of k such shifts, one per column, so that
    one block holds right-hand sides of several ridge parameters.  There is
    one path: a vector is solved as a one-column block,
    ``Q @ ((Q.T @ Y) / (w[:, None] + shift))`` through ``g.eigen``, so
    repeated solves against one Gram matrix cost one backtransform (two
    matrix products) each, and each column's divisor is what a solve of that
    column alone would use.  A raw symmetric PSD array goes through
    ``GramMatrix(a)``, which also gives it the PSD check.

    The PSD check leaves each computed eigenvalue of G only within
    tau = ``g.psd_tol`` of the truth, so G + shift*I is positive definite
    only when its smallest computed eigenvalue w_min + shift exceeds tau.
    Where it does not, :class:`DiagnosticsError` is raised, since the solve
    would divide by shifted eigenvalues of either sign.
    """
    shifts = _as_floats(shift, "shift")
    if shifts.ndim > 1 or not np.all(shifts > 0):
        raise ValueError(
            f"shift must be positive and finite, one value or one per column, got {shift}"
        )
    y = _as_floats(rhs, "rhs", g.n)
    block = y.reshape(g.n, -1)
    if shifts.ndim == 1 and shifts.shape != (block.shape[1],):
        raise ValueError(f"got {shifts.shape[0]} shifts for {block.shape[1]} right-hand sides")
    eig = g.eigen
    low = float(eig.eigenvalues[-1]) + float(shifts.min())
    if not low > g.psd_tol:
        raise DiagnosticsError(
            f"shifted Gram matrix may be indefinite: min eigenvalue plus smallest shift "
            f"{low:.6e} does not exceed the PSD tolerance {g.psd_tol:.6e}"
        )
    z = eig.eigenvectors.T @ block
    return (eig.eigenvectors @ (z / (eig.eigenvalues[:, None] + shifts))).reshape(y.shape)


def pinv_solve(g: GramMatrix, rhs) -> np.ndarray:
    """Minimal-norm solution of ``G x = rhs`` for the GramMatrix ``g`` and a
    finite ``rhs``.

    Eigenvalues of ``g.eigen`` at or below 1e-10 times the largest are
    treated as zero.  Raises :class:`InconsistentSystemError` when the
    residual exceeds ``1e-6 * (1 + max|rhs|)``, i.e. when ``rhs`` has a
    component outside the numerical range of G.  A raw symmetric PSD array
    goes through ``GramMatrix(a)``, which also gives it the PSD check.
    """
    y = _as_floats(rhs, "rhs")
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
    grows by doubling up to ``max_rank`` rows, so it holds at most
    min(2 * r, max_rank) * n values, never n x n.
    """
    resid = np.array(diag, dtype=float)
    rows = np.empty((min(max_rank, 32), resid.shape[0]))  # L^T, one row per pivot
    k = 0
    while float(resid.sum()) > tol:
        if k == max_rank:
            return None
        if k == rows.shape[0]:
            rows = np.concatenate([rows, np.empty((min(k, max_rank - k), rows.shape[1]))])
        p = int(resid.argmax())
        col = np.subtract(column(p), rows[:k].T @ rows[:k, p], out=rows[k])
        col /= math.sqrt(resid[p])
        resid -= col * col
        k += 1
    return rows[:k].T


def low_rank_solve(factor: np.ndarray, shift: float, rhs) -> np.ndarray:
    """Solve ``(L L^T + shift*I) x = rhs`` for the (n, r) ``factor`` L, 0 < shift < inf,
    and a finite vector (n,) or block (n, k >= 1) ``rhs``.

    Sherman-Morrison-Woodbury: x = (y - L (L^T L + shift I)^{-1} L^T y) / shift,
    one r x r system (Fine and Scheinberg, JMLR 2001).  The subtraction loses
    up to a factor 1 + lambda_max(L^T L) / shift <= 1 + trace / shift of
    relative accuracy, so callers bound that ratio.
    """
    shift = _as_real(shift, "shift")
    y = _as_floats(rhs, "rhs", factor.shape[0])
    small = factor.T @ factor
    small[np.diag_indices_from(small)] += shift
    return (y - factor @ np.linalg.solve(small, factor.T @ y)) / shift
