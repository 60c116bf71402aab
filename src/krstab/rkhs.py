"""Functions represented as finite kernel expansions, and the inner product,
norm, and distance they inherit from their kernel.

A function is f = sum_i coeffs[i] * K(anchors[i], .).  The reproducing
property makes evaluation an inner product against the kernel section at
each query point, one value per point, and makes the squared norm a Gram
quadratic form; both are used all over the solver and experiment code, so
the implementations here stay in pure vectorized numpy.  Expansions are never
deduplicated: two expansions over one point set combine by adding
coefficients, any others by concatenation.  The coefficients are a vector,
or an (n, k) block of k expansions on one point set, as thm2 holds every
fit of a run.  Every H-norm of an expansion is one quadratic form on its
coefficients, a vector being a one-column block, and the kernel matrix of
its anchors: :func:`rkhs_norm` builds that matrix, :func:`gram_norm` takes
a caller's Gram matrix, and :func:`h_distance` is one of the two on the
difference that :func:`combine` builds.  :func:`inner_product` takes
vectors only.  :func:`cross_term_distance` takes a distance without a
combined expansion and without a kernel value, from the product of a Gram
matrix never held whole with the coefficients, as the thm1 harness's
low-rank route gets it, and from the other function's values and squared
norm.  Coefficients are
read by :func:`~krstab.linalg._as_floats`, which refuses a bool, a
non-number, nan, inf and a shape other than a vector or an (n, k >= 1)
block by name, and so are the arrays :func:`cross_term_distance` takes;
the scalars of :func:`combine` and ||g||^2 are read by
:func:`~krstab.linalg._as_real`.
"""

from __future__ import annotations

import math
import os
import sys
import warnings

import numpy as np

from .kernels import (
    GramMatrix,
    KernelSpec,
    PointSet,
    _check_gram,
    _point_set,
    _same_rows,
    kernel_matrix,
)
from .linalg import DiagnosticsError, Frozen, _as_floats, _as_real


class RepresenterFunction(Frozen):
    """Finite kernel expansion: anchors (n, d) with a coefficient vector, or an
    (n, k) block of k expansions, stored C-contiguous as DataSet's labels are."""

    def __init__(self, kernel: KernelSpec, anchors: PointSet, coeffs: np.ndarray) -> None:
        anchors = _point_set(anchors)
        c = np.array(_as_floats(coeffs, "coeffs", len(anchors)), order="C")
        c.setflags(write=False)
        vars(self).update(kernel=kernel, anchors=anchors, coeffs=c)

    def to_json_dict(self) -> dict:
        return {
            "kernel": self.kernel.to_json_dict(),
            "anchors": self.anchors.points.tolist(),
            "coeffs": self.coeffs.tolist(),
        }


def evaluate(f: RepresenterFunction, x) -> np.ndarray:
    """(f(x_1), ..., f(x_m)), one value per point of ``x``, read as a
    :class:`~krstab.kernels.PointSet` (a 1-D array is m points on the line).
    f at the single point (x_1, ..., x_d) is ``evaluate(f, [[x_1, ..., x_d]])[0]``.
    An (n, k) block of k expansions gives one row of k values per point.
    """
    return kernel_matrix(f.kernel, x, f.anchors) @ f.coeffs


def _require_same_kernel(f: RepresenterFunction, g: RepresenterFunction) -> None:
    if f.kernel != g.kernel:
        raise ValueError(
            f"kernel mismatch: {f.kernel.to_json_dict()} vs {g.kernel.to_json_dict()}"
        )


def inner_product(f: RepresenterFunction, g: RepresenterFunction) -> float:
    """(f, g)_H = coeffs_f . K(anchors_f, anchors_g) . coeffs_g, for vectors."""
    _require_same_kernel(f, g)
    for h in (f, g):
        if h.coeffs.ndim != 1:
            raise ValueError(f"inner_product takes vectors, got a block of shape {h.coeffs.shape}")
    cross = kernel_matrix(f.kernel, f.anchors, g.anchors)
    return float(f.coeffs @ cross @ g.coeffs)


_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def _norm_from_square(sq: float) -> float:
    """sqrt of a squared H-norm, with the clamp and flag of :func:`rkhs_norm`.
    The warning names the first frame outside the krstab package, the line
    that called krstab, whichever of its functions led here."""
    if not math.isfinite(sq):
        raise DiagnosticsError(f"squared norm {sq} is not finite: its terms overflow")
    if sq < -1e-8:
        frame, level = sys._getframe(1), 2
        while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
            frame, level = frame.f_back, level + 1
        warnings.warn(
            f"squared norm {sq:.3e} is significantly negative; "
            "Gram matrix is numerically indefinite",
            RuntimeWarning,
            stacklevel=level,
        )
    return math.sqrt(max(sq, 0.0))


def _norms(k: np.ndarray, coeffs: np.ndarray):
    """The norms of the expansions with ``coeffs``, a vector or an (n, k)
    block C, over anchors whose kernel matrix is ``k``: the squares sum(C *
    (K @ C), axis=0), one matrix-matrix product, each clamped and flagged.
    A float for a vector, an array of k norms for a block."""
    block = coeffs.reshape(len(k), -1)
    squares = np.sum(block * (k @ block), axis=0).tolist()
    norms = np.array([_norm_from_square(sq) for sq in squares])
    return norms if coeffs.ndim == 2 else float(norms[0])


def rkhs_norm(f: RepresenterFunction):
    """||f||_H, :func:`gram_norm`'s quadratic form on the kernel matrix of
    f's anchors: a float for a vector, or the k norms of an (n, k) block.
    Tiny negative squared norms from rounding are clamped to 0; anything
    below -1e-8 is flagged as a diagnostic, and a squared norm that is not
    finite, whose terms overflow, is a DiagnosticsError."""
    return _norms(kernel_matrix(f.kernel, f.anchors, f.anchors), f.coeffs)


def gram_norm(g: GramMatrix, coeffs: np.ndarray):
    """H-norm of the expansion with ``coeffs`` over the points of ``g``:
    sqrt(coeffs . G . coeffs), clamped and flagged as in :func:`rkhs_norm`.

    ``coeffs`` of shape (n, k) holds k expansions as columns and gives an
    array of their k norms, each clamped and flagged, from one
    matrix-matrix product with G; a vector is a one-column block and gives
    its one norm as a float.  Non-finite coefficients and an (n, 0) block
    are refused before the product.
    """
    return _norms(g.entries, _as_floats(coeffs, "coeffs", g.n))


def combine(
    f: RepresenterFunction, g: RepresenterFunction, a: float = 1.0, b: float = 1.0
) -> RepresenterFunction:
    """a*f + b*g as one expansion.  When f and g share one point set (the same
    object or byte-equal rows) that set is kept and the coefficients are added
    row by row; otherwise the anchors of f are followed by those of g.  Anchors
    are never deduplicated: a repeated row only splits a coefficient, and the
    H-norm is the same either way.  A vector, like a one-column block, joins
    every column of a block, as that column's own combine would."""
    _require_same_kernel(f, g)
    if f.anchors.dim != g.anchors.dim:
        raise ValueError("anchor dimensions differ")
    fc, gc = _as_real(a, "a", "") * f.coeffs, _as_real(b, "b", "") * g.coeffs
    if 2 in (fc.ndim, gc.ndim):
        k = np.broadcast_shapes(fc.shape[1:], gc.shape[1:])
        fc, gc = (np.broadcast_to(c.reshape(len(c), -1), (len(c), *k)) for c in (fc, gc))
    if _same_rows(f.anchors, g.anchors):
        return RepresenterFunction(f.kernel, f.anchors, fc + gc)
    pts = PointSet(np.vstack([f.anchors.points, g.anchors.points]))
    return RepresenterFunction(f.kernel, pts, np.concatenate([fc, gc]))


def h_distance(
    f: RepresenterFunction, g: RepresenterFunction, gram_matrix: GramMatrix | None = None
) -> float | np.ndarray:
    """||f - g||_H, the norm of the difference d = f - g that :func:`combine`
    builds: a float for a coefficient vector, or the k distances of an
    (n, k) block.

    Without ``gram_matrix`` it is :func:`rkhs_norm` of d; with it,
    :func:`gram_norm` of d's coefficients on it, so no kernel matrix is
    built.  It must be the Gram matrix of d's anchors, f's points when f
    and g share them: one of another size, kernel or points is a ValueError
    naming ``gram_matrix``.  A gaussian :func:`~krstab.kernels.gram` holds
    the bits of the kernel matrix that :func:`rkhs_norm` builds, so on it
    the two give the same bits.
    """
    diff = combine(f, g, 1.0, -1.0)
    if gram_matrix is None:
        return rkhs_norm(diff)
    return gram_norm(_check_gram(gram_matrix, f.kernel, diff.anchors), diff.coeffs)


def cross_term_distance(coeffs, gram_product, g_values, g_sq: float) -> float:
    """||f - g||_H as ||f||^2 - 2 (f, g)_H + ||g||^2, clamped and flagged as
    in :func:`rkhs_norm`, for the expansion f with ``coeffs`` over some
    anchors, from terms the caller holds; no kernel value is computed here.

    ``gram_product`` is G @ coeffs for the Gram matrix G of f's anchors, or
    L (L^T coeffs) for a factor G ~ L L^T, so ||f||^2 = coeffs .
    gram_product, off by coeffs . (G - L L^T) coeffs for a factor.
    ``g_values`` is g at f's anchors, so (f, g)_H = coeffs . g_values, and
    ``g_sq`` is ||g||^2, ``inner_product(g, g)``.  The thm1 harness takes
    g's values from ``sample_dataset``, which returns them with the labels,
    and ||g||^2 once per run.  The three arrays must be vectors of one
    length, and ``g_sq`` a finite number >= 0.
    """
    g_sq = _as_real(g_sq, "g_sq", ">= 0")
    coeffs, product, values = (
        _as_floats(v, name)
        for v, name in ((coeffs, "coeffs"), (gram_product, "gram_product"), (g_values, "g_values"))
    )
    if coeffs.ndim != 1 or product.shape != coeffs.shape or values.shape != coeffs.shape:
        raise ValueError(
            "coeffs, gram_product and g_values must be vectors of one length, got shapes "
            f"{coeffs.shape}, {product.shape} and {values.shape}"
        )
    sq = float(coeffs @ product) - 2.0 * float(coeffs @ values) + g_sq
    return _norm_from_square(sq)
