"""An extended-precision oracle for the thm1 and thm2 harnesses' numbers.

The harnesses' routes are double precision, and so is every reference the
other tests compare them with: a gap between two double routes does not say
which one is wrong.  This module recomputes a row in ``np.longdouble`` from
the row's double inputs: the kernel values, a Cholesky factorization of
G + N lam I written with numpy row operations (``np.linalg`` takes no long
double), and the solves on it.  For thm1 that is the fit alpha and its
H-distance to the target; for thm2, on a design whose G is full rank, the
minimal-norm coefficients beta = G^-1 v, and per row the fit, the shrinkage
solve and term, the distance to the interpolant and the gap between the two
sides of the fit-error identity.  On x86-64 Linux long double is the x87
80-bit format, whose unit roundoff 2^-64 is about 2000 times below double's;
where long double is a plain double (arm64 macOS, Windows) the oracle proves
nothing, and the tests that use it skip.
"""

import numpy as np
import pytest

needs_long_double = pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18,
    reason="long double is not extended precision on this platform",
)


def long_double_kernel(spec, a, b):
    """K(a_i, b_j) in long double, from the same double inputs."""
    a, b = a.astype(np.longdouble), b.astype(np.longdouble)
    if spec.kind == "gaussian":
        d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
        return np.exp(-d2 / (2 * np.longdouble(spec.width) ** 2))
    dot = np.sum(a[:, None, :] * b[None, :, :], axis=-1)
    if spec.kind == "linear":
        return dot
    return (dot + np.longdouble(spec.offset)) ** spec.degree


def cholesky(a):
    """The lower Cholesky factor of the symmetric positive definite ``a``,
    column by column (left-looking), in ``a``'s dtype."""
    n = a.shape[0]
    low = np.zeros_like(a)
    for j in range(n):
        col = a[j:, j] - low[j:, :j] @ low[j, :j]
        low[j:, j] = col / np.sqrt(col[0])
    return low


def solve_cholesky(low, y):
    """x with (low low^T) x = y, by forward and back substitution."""
    n = low.shape[0]
    z = np.zeros_like(y)
    for i in range(n):
        z[i] = (y[i] - low[i, :i] @ z[:i]) / low[i, i]
    x = np.zeros_like(y)
    for i in reversed(range(n)):
        x[i] = (z[i] - low[i + 1 :, i] @ x[i + 1 :]) / low[i, i]
    return x


def thm1_row(data, lam, target):
    """The fit alpha of ``data`` at ``lam``, (G + N lam I) alpha = y, and its
    H-distance to ``target``, both in long double.  The distance is
    sqrt(alpha.G.alpha - 2 alpha.v + c.K.c), with v the target's values at
    the points and K and c the target's anchor Gram matrix and coefficients."""
    spec, x = target.kernel, data.pts.points
    n = x.shape[0]
    g = long_double_kernel(spec, x, x)
    shifted = g + np.longdouble(n) * np.longdouble(lam) * np.eye(n, dtype=np.longdouble)
    alpha = solve_cholesky(cholesky(shifted), data.labels.astype(np.longdouble))
    c = target.coeffs.astype(np.longdouble)
    anchors = target.anchors.points
    values = long_double_kernel(spec, x, anchors) @ c
    target_sq = c @ long_double_kernel(spec, anchors, anchors) @ c
    return alpha, np.sqrt(alpha @ g @ alpha - 2 * alpha @ values + target_sq)


def _h_norm(g, c):
    return np.sqrt(np.maximum(c @ g @ c, 0))


def thm2_design(pts, target):
    """G on ``pts``, the target's values v at them and the minimal-norm
    interpolation coefficients beta = G^+ v, in long double.  beta is
    G^-1 v, so G must be full rank; the caller checks that."""
    spec, x = target.kernel, pts.points
    g = long_double_kernel(spec, x, x)
    coeffs = target.coeffs.astype(np.longdouble)
    values = long_double_kernel(spec, x, target.anchors.points) @ coeffs
    return g, values, solve_cholesky(cholesky(g), values)


def thm2_row(g, values, beta, t, lam, noise):
    """One thm2 row in long double, for labels v + b/t with the double noise
    b = ``noise``: the fit alpha = (G + n lam I)^-1 (v + b/t), the shrinkage
    solve z = (G + n lam I)^-1 beta, the shrinkage term n lam ||z||_H, the
    distance ||alpha - beta||_H and the H-norm of the fit-error identity's
    gap (alpha - beta) - ((G + n lam I)^-1 (b/t) - n lam z), which is 0 in
    exact arithmetic."""
    n = len(values)
    shift = np.longdouble(n) * np.longdouble(lam)
    low = cholesky(g + shift * np.eye(n, dtype=np.longdouble))
    scaled = noise.astype(np.longdouble) / np.longdouble(t)
    alpha, shrink = solve_cholesky(low, values + scaled), solve_cholesky(low, beta)
    gap = (alpha - beta) - (solve_cholesky(low, scaled) - shift * shrink)
    return alpha, shrink, shift * _h_norm(g, shrink), _h_norm(g, alpha - beta), _h_norm(g, gap)
