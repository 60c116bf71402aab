"""The evaluation operator on a point set, its adjoint, and the spectral
quantities that drive the convergence bounds.

P maps a function to its values on the points, P(f)_i = f(x_i); its adjoint
maps a coefficient vector to the expansion P*(c) = sum_i c_i K(x_i, .).  On
coefficient vectors the composition P*P acts as the Gram matrix, so all
spectral statements reduce to the Gram eigenvalues gamma_k:

* ||P||        <= sqrt(max_j sum_i |G_ij|)            (row-sum bound)
* per-eigenvalue gain of (P*P/n + lam)^{-1} P*:
                  sqrt(gamma_k) / (gamma_k/n + lam)
* the gain profile z -> sqrt(z)/(z/n + lam) peaks at z = n*lam with value
                  sqrt(n) / (2 sqrt(lam)),
  which caps the noise propagation (1/(n t)) ||(P*P/n + lam)^{-1} P* b||_H by
                  ||b||_2 / (2 t sqrt(lam) sqrt(n)) * ... see
                  :func:`noise_operator_bound` for the assembled constant.

The error-identity check :func:`decomposition_residual` takes (n, k)
blocks of fits with t, lam and the shrinkage solve per column, as
:func:`shrinkage_term` takes lam, so thm2 checks its t-grid as one block.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import GramMatrix, KernelSpec, PointSet, _point_set, gram, kernel_matrix
from .linalg import (
    InconsistentSystemError,
    _as_count,
    _as_floats,
    _as_real,
    pinv_solve,
    regularized_solve,
)
from .rkhs import RepresenterFunction, evaluate, gram_norm
from .rng import SplitMix64
from .stability import _in_float_range


class EvaluationOperator:
    """P for one kernel and one point set; owns the Gram matrix the adjoint
    composition acts through."""

    def __init__(self, kernel: KernelSpec, pts: PointSet):
        pts = _point_set(pts)
        self.kernel = kernel
        self.pts = pts
        self.gram = gram(kernel, pts)

    @property
    def n(self) -> int:
        return len(self.pts)


def apply_p(op: EvaluationOperator, f: RepresenterFunction) -> np.ndarray:
    """(f(x_1), ..., f(x_n))."""
    if f.kernel != op.kernel:
        raise ValueError("function kernel differs from the operator kernel")
    return evaluate(f, op.pts)


def apply_p_star(op: EvaluationOperator, c) -> RepresenterFunction:
    """sum_i c_i K(x_i, .) as a kernel expansion over the operator's points;
    an (n, k) block of k coefficient vectors gives the k expansions."""
    return RepresenterFunction(op.kernel, op.pts, _as_floats(c, "c", op.n))


def operator_norm_bound_p(op: EvaluationOperator) -> float:
    """sqrt of the largest absolute row sum of the Gram matrix; an upper
    bound for ||P|| since ||G||_2 <= max row sum for symmetric G."""
    return math.sqrt(float(np.max(np.sum(np.abs(op.gram.entries), axis=1))))


def ker_p_sample(
    op: EvaluationOperator, extra_pts: PointSet, seed: int = 0, extra_coeffs=None
) -> RepresenterFunction:
    """A function vanishing on all of the operator's points.

    Built as h = sum_j c_j K(z_j, .) + sum_i a_i K(x_i, .) with random c over
    the extra points z_j (uniform in [-1, 1] from ``seed``, unless
    ``extra_coeffs`` is given) and a solved so that h(x_i) = 0 for every
    operator point.  The extra points must be disjoint from the operator's
    points (exact row equality is rejected).  Raises InconsistentSystemError
    when the correction system cannot be satisfied; the construction is
    verified to max_i |h(x_i)| <= 1e-8 before returning.
    """
    extra_pts = _point_set(extra_pts)
    if extra_pts.dim != op.pts.dim:
        raise ValueError("extra points have the wrong dimension")
    base_rows = {row.tobytes() for row in op.pts.points}
    for row in extra_pts.points:
        if row.tobytes() in base_rows:
            raise ValueError("extra points must be disjoint from the operator's points")
    if extra_coeffs is None:
        stream = SplitMix64(seed)
        # Same bits as lo + (hi - lo) * stream.next_double() per extra point.
        lo, hi = -1.0, 1.0
        c = lo + (hi - lo) * stream.doubles(len(extra_pts))
    else:
        c = _as_floats(extra_coeffs, "extra_coeffs")
        if c.shape != (len(extra_pts),):
            raise ValueError("extra_coeffs length must match extra_pts")
    cross = kernel_matrix(op.kernel, op.pts, extra_pts)
    a = pinv_solve(op.gram, -(cross @ c))
    h = RepresenterFunction(
        op.kernel,
        PointSet(np.vstack([op.pts.points, extra_pts.points])),
        np.concatenate([a, c]),
    )
    worst = float(np.max(np.abs(evaluate(h, op.pts))))
    if worst > 1e-8:
        raise InconsistentSystemError(
            f"kernel-of-P sample fails to vanish on the points: max |h(x_i)| = {worst:.3e}"
        )
    return h


def filter_gains(g: GramMatrix, lam: float) -> np.ndarray:
    """Per-eigenvalue gains sqrt(gamma_k) / (gamma_k/n + lam), descending
    eigenvalue order; tiny negative eigenvalues contribute zero numerator."""
    _as_real(lam, "lam")
    w = g.eigen.eigenvalues
    return np.sqrt(np.maximum(w, 0.0)) / (w / g.n + lam)


def filter_gain_bound(n: int, lam: float) -> float:
    """sqrt(n) / (2 sqrt(lam)): the exact maximum of the gain profile."""
    return math.sqrt(_as_count(n, "n")) / (2.0 * math.sqrt(_as_real(lam, "lam")))


def filter_max(n: int, lam: float) -> tuple[float, float]:
    """(argmax, max) of z -> z / (z/n + lam)^2 over z >= 0.

    The maximizer is z = n*lam and the value there is n / (4*lam); this is
    the squared gain profile, so its max is the square of
    :func:`filter_gain_bound`.  A result outside the float range, such as
    n / (4*lam) at a subnormal lam, is a ValueError naming it, as in
    :mod:`krstab.stability`.
    """
    n, lam = _as_count(n, "n"), _as_real(lam, "lam")
    return (_filter_argmax(n, lam), _filter_max_value(n, lam))


@_in_float_range("filter_argmax = n lam")
def _filter_argmax(n: int, lam: float) -> float:
    return n * lam


@_in_float_range("filter_max_value = n / (4 lam)")
def _filter_max_value(n: int, lam: float) -> float:
    return n / (4.0 * lam)


@_in_float_range("noise_bound = (1/(n t)) * (sqrt(n) / (2 sqrt(lam))) * ||b||_2")
def noise_operator_bound(n: int, t: float, lam: float, b_norm: float) -> float:
    """Bound on the H-norm of the noise image (1/(n t)) (P*P/n + lam)^{-1} P* b:

        (1/(n t)) * (sqrt(n) / (2 sqrt(lam))) * ||b||_2

    A result outside the float range, such as 1/(n t) overflowing at a tiny
    t, is a ValueError naming the bound, as in :mod:`krstab.stability`.
    """
    n = _as_count(n, "n")
    t, lam, b_norm = _as_real(t, "t"), _as_real(lam, "lam"), _as_real(b_norm, "b_norm", ">= 0")
    return (1.0 / (n * t)) * (math.sqrt(n) / (2.0 * math.sqrt(lam))) * b_norm


def shrinkage_profile(g: GramMatrix, lam: float, scale: float) -> list[tuple[float, float]]:
    """Pairs (gamma_k, lam / (gamma_k/scale + lam)) in descending eigenvalue
    order: the factor by which regularization damps each spectral component.
    ``scale`` is n for the sample operator P*P and 1 for its mean surrogate."""
    lam, scale = _as_real(lam, "lam"), _as_real(scale, "scale")
    w = g.eigen.eigenvalues
    factors = lam / (np.maximum(w, 0.0) / scale + lam)
    return [(float(gamma), float(fac)) for gamma, fac in zip(w, factors)]


def shrinkage_term(g: GramMatrix, shrink_solve: np.ndarray, lam):
    """H-norm of the pure-regularization error n*lam*(G + n*lam I)^{-1} beta,
    given ``shrink_solve`` = (G + n*lam I)^{-1} beta for the minimal-norm
    coefficients beta.

    A vector ``shrink_solve`` with a scalar ``lam`` gives one norm; an
    (n, k) block whose column j was solved with shift n*lam[j], with an
    array of k values of ``lam`` (or one for all), gives the k norms from
    one Gram product.  Any other ``lam``, or one that is not finite, is a
    ValueError naming it.
    """
    lam = _as_floats(lam, "lam")
    if lam.ndim and lam.shape != np.shape(shrink_solve)[1:]:
        raise ValueError(
            f"lam has shape {lam.shape}; it takes one value, or one per column "
            f"of shrink_solve {np.shape(shrink_solve)}"
        )
    return gram_norm(g, g.n * lam * shrink_solve)


def decomposition_residual(
    g: GramMatrix,
    alpha: np.ndarray,
    beta: np.ndarray,
    shrink_solve: np.ndarray,
    noise: np.ndarray,
    t: np.ndarray,
    lam: np.ndarray,
) -> np.ndarray:
    """H-norm gaps between the two sides of the fit-error identity, one per
    fit of a block.

    ``alpha``, ``shrink_solve`` and ``noise`` are (n, k) blocks: column j
    holds a ridge fit for labels v + b_j/t_j with lam_j, its shrinkage solve
    (G + n*lam_j I)^{-1} beta and its noise b_j; ``t`` and ``lam`` hold the
    k values t_j and lam_j, and ``beta`` (n,) the minimal-norm interpolation
    coefficients for v.  For each column,

        alpha - beta = -n*lam*(G + n*lam I)^{-1} beta
                       + (G + n*lam I)^{-1} (b/t)

    holds exactly in arithmetic; the k H-norms of the difference of the two
    sides are returned.  The noise solve (G + n*lam I)^{-1} (b/t) is one
    block solve made here, so the right side never shares the solve that
    produced alpha; it checks lam, through its shifts n*lam.
    """
    t, lam = _as_floats(t, "t"), _as_floats(lam, "lam")
    if t.ndim != 1 or lam.ndim != 1:
        raise ValueError(f"t has shape {t.shape} and lam {lam.shape}, expected k values each")
    n, k, beta = g.n, len(t), _as_floats(beta, "beta")
    if beta.shape != (n,):
        raise ValueError(f"beta has shape {beta.shape}, expected ({n},)")
    blocks = (np.shape(alpha), np.shape(shrink_solve), np.shape(noise))
    if blocks != ((n, k),) * 3:
        raise ValueError(
            f"alpha, shrink_solve and noise have shapes {blocks}, expected three ({n}, {k}) blocks"
        )
    if not np.all(t > 0):
        raise ValueError(f"need t > 0, got {t}")
    right = regularized_solve(g, n * lam, noise / t) - n * lam * shrink_solve
    return gram_norm(g, alpha - beta[:, None] - right)
