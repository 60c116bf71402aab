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

The error-identity check :func:`decomposition_residual` has one path, on
(n, k) blocks of fits: a single fit is a one-column block.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import GramMatrix, KernelSpec, PointSet, gram, kernel_matrix
from .linalg import InconsistentSystemError, pinv_solve, regularized_solve
from .rkhs import RepresenterFunction, evaluate, gram_norm
from .rng import SplitMix64


class EvaluationOperator:
    """P for one kernel and one point set; owns the Gram matrix the adjoint
    composition acts through."""

    def __init__(self, kernel: KernelSpec, pts: PointSet):
        if not isinstance(pts, PointSet):
            pts = PointSet(pts)
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
    """sum_i c_i K(x_i, .) as a kernel expansion over the operator's points."""
    c = np.asarray(c, dtype=float)
    if c.shape != (op.n,):
        raise ValueError(f"coefficient vector must have shape ({op.n},), got {c.shape}")
    return RepresenterFunction(op.kernel, op.pts, c)


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
    if not isinstance(extra_pts, PointSet):
        extra_pts = PointSet(extra_pts)
    if extra_pts.dim != op.pts.dim:
        raise ValueError("extra points have the wrong dimension")
    base_rows = {row.tobytes() for row in op.pts.points}
    for row in extra_pts.points:
        if row.tobytes() in base_rows:
            raise ValueError("extra points must be disjoint from the operator's points")
    if extra_coeffs is None:
        stream = SplitMix64(seed)
        # Same bits as one stream.uniform(lo, hi) per extra point.
        lo, hi = -1.0, 1.0
        c = lo + (hi - lo) * stream.doubles(len(extra_pts))
    else:
        c = np.asarray(extra_coeffs, dtype=float)
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
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    w = g.eigen.eigenvalues
    return np.sqrt(np.maximum(w, 0.0)) / (w / g.n + lam)


def filter_gain_bound(n: int, lam: float) -> float:
    """sqrt(n) / (2 sqrt(lam)): the exact maximum of the gain profile."""
    if n < 1 or not lam > 0:
        raise ValueError("need n >= 1 and lam > 0")
    return math.sqrt(n) / (2.0 * math.sqrt(lam))


def filter_max(n: int, lam: float) -> tuple[float, float]:
    """(argmax, max) of z -> z / (z/n + lam)^2 over z >= 0.

    The maximizer is z = n*lam and the value there is n / (4*lam); this is
    the squared gain profile, so its max is the square of
    :func:`filter_gain_bound`.
    """
    if n < 1 or not lam > 0:
        raise ValueError("need n >= 1 and lam > 0")
    return (n * lam, n / (4.0 * lam))


def noise_operator_bound(n: int, t: float, lam: float, b_norm: float) -> float:
    """Bound on the H-norm of the noise image (1/(n t)) (P*P/n + lam)^{-1} P* b:

        (1/(n t)) * (sqrt(n) / (2 sqrt(lam))) * ||b||_2
    """
    if n < 1 or not t > 0 or not lam > 0 or b_norm < 0:
        raise ValueError("need n >= 1, t > 0, lam > 0, b_norm >= 0")
    return (1.0 / (n * t)) * (math.sqrt(n) / (2.0 * math.sqrt(lam))) * b_norm


def shrinkage_profile(g: GramMatrix, lam: float, scale: float) -> list[tuple[float, float]]:
    """Pairs (gamma_k, lam / (gamma_k/scale + lam)) in descending eigenvalue
    order: the factor by which regularization damps each spectral component.
    ``scale`` is n for the sample operator P*P and 1 for its mean surrogate."""
    if not lam > 0 or not scale > 0:
        raise ValueError("need lam > 0 and scale > 0")
    w = g.eigen.eigenvalues
    factors = lam / (np.maximum(w, 0.0) / scale + lam)
    return [(float(gamma), float(fac)) for gamma, fac in zip(w, factors)]


def shrinkage_term(g: GramMatrix, shrink_solve: np.ndarray, lam: float) -> float:
    """H-norm of the pure-regularization error n*lam*(G + n*lam I)^{-1} beta,
    given ``shrink_solve`` = (G + n*lam I)^{-1} beta for the minimal-norm
    coefficients beta."""
    return gram_norm(g, g.n * lam * shrink_solve)


def decomposition_residual(
    g: GramMatrix,
    alpha: np.ndarray,
    beta: np.ndarray,
    shrink_solve: np.ndarray,
    noise: np.ndarray,
    t: float,
    lam: float,
):
    """H-norm gaps between the two sides of the fit-error identity, one per
    fit of a block.

    ``alpha`` and ``noise`` are (n, k) blocks whose columns are k ridge fits
    for labels v + b/t and their noise vectors b; ``beta`` (n,) holds the
    minimal-norm interpolation coefficients for v and ``shrink_solve`` (n,)
    is (G + n*lam I)^{-1} beta.  For each column,

        alpha - beta = -n*lam*(G + n*lam I)^{-1} beta
                       + (G + n*lam I)^{-1} (b/t)

    holds exactly in arithmetic; the k H-norms of the difference of the two
    sides are returned.  There is one path: a single fit is a one-column
    block.  The noise solve (G + n*lam I)^{-1} (b/t) is computed here, as
    one block solve, so the right side never shares the solve that produced
    alpha.
    """
    if not t > 0 or not lam > 0:
        raise ValueError("need t > 0 and lam > 0")
    n = g.n
    if np.ndim(alpha) != 2 or len(alpha) != n or np.shape(alpha) != np.shape(noise):
        raise ValueError(
            f"alpha has shape {np.shape(alpha)} and noise has shape {np.shape(noise)}, "
            f"expected two ({n}, k) blocks"
        )
    left = alpha - beta[:, None]
    right = -n * lam * shrink_solve[:, None] + regularized_solve(g, n * lam, noise / t)
    return gram_norm(g, left - right)
