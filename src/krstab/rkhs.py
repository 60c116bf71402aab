"""Functions represented as finite kernel expansions, and the inner product,
norm, and distance they inherit from their kernel.

A function is f = sum_i coeffs[i] * K(anchors[i], .).  The reproducing
property makes evaluation an inner product against the kernel section at the
query point, and makes the squared norm a Gram quadratic form; both are used
all over the solver and experiment code, so the implementations here stay in
pure vectorized numpy.  Expansions are never deduplicated: two expansions
over one point set combine by adding coefficients, any others by
concatenation.  :func:`h_distance` has one path: it takes a sequence of
expansions against one reference, and a single expansion is a sequence of
one.  When every difference lies on one point set, repeated rows or not,
whose Gram matrix the caller supplies, their k distances are one Gram
quadratic form on the (n, k) block of coefficients, as the thm2 harness uses
for every row of a run at once.  :func:`gram_norm` alone keeps a separate 1-D form,
because a vector's quadratic form rounds differently from a one-column
block's.  :func:`cross_term_distance` takes a distance without a combined
expansion and without a kernel value, from the product of a Gram matrix
never held whole with the coefficients, as the thm1 harness's low-rank route
gets it, and from the other function's values and squared norm.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence

import numpy as np

from .kernels import GramMatrix, KernelSpec, PointSet, kernel_matrix
from .linalg import Frozen


class RepresenterFunction(Frozen):
    """Finite kernel expansion: anchors (n, d) with one coefficient each."""

    def __init__(self, kernel: KernelSpec, anchors: PointSet, coeffs: np.ndarray) -> None:
        if not isinstance(anchors, PointSet):
            anchors = PointSet(anchors)
        c = np.asarray(coeffs, dtype=float).copy()
        if c.ndim != 1 or c.shape[0] != len(anchors):
            raise ValueError(
                f"coeffs must be a vector of length {len(anchors)}, got shape {c.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("coeffs must be finite")
        c.setflags(write=False)
        vars(self).update(kernel=kernel, anchors=anchors, coeffs=c)

    def to_json_dict(self) -> dict:
        return {
            "kernel": self.kernel.to_json_dict(),
            "anchors": self.anchors.points.tolist(),
            "coeffs": self.coeffs.tolist(),
        }


def evaluate(f: RepresenterFunction, x):
    """f(x).

    A scalar is one point on the line (float out).  A 1-D array is a single
    point when its length equals the anchor dimension d > 1, otherwise a
    batch of 1-D points (vector out).  A 2-D (m, d) array is a batch.
    """
    arr = x.points if isinstance(x, PointSet) else np.asarray(x, dtype=float)
    d = f.anchors.dim
    if arr.ndim == 0:
        arr, single = arr.reshape(1, 1), True
    elif arr.ndim == 1:
        if d > 1:
            if arr.shape[0] != d:
                raise ValueError(f"point has dimension {arr.shape[0]}, expected {d}")
            arr, single = arr.reshape(1, d), True
        else:
            arr, single = arr.reshape(-1, 1), False
    elif arr.ndim == 2:
        single = False
    else:
        raise ValueError(f"cannot interpret input of shape {arr.shape} as points")
    vals = kernel_matrix(f.kernel, arr, f.anchors) @ f.coeffs
    return float(vals[0]) if single else vals


def _require_same_kernel(f: RepresenterFunction, g: RepresenterFunction) -> None:
    if f.kernel != g.kernel:
        raise ValueError(
            f"kernel mismatch: {f.kernel.to_json_dict()} vs {g.kernel.to_json_dict()}"
        )


def inner_product(f: RepresenterFunction, g: RepresenterFunction) -> float:
    """(f, g)_H = coeffs_f . K(anchors_f, anchors_g) . coeffs_g."""
    _require_same_kernel(f, g)
    if f.anchors.dim != g.anchors.dim:
        raise ValueError("anchor dimensions differ")
    cross = kernel_matrix(f.kernel, f.anchors, g.anchors)
    return float(f.coeffs @ cross @ g.coeffs)


def _norm_from_square(sq: float) -> float:
    """sqrt of a squared H-norm, with the clamp and flag of :func:`rkhs_norm`."""
    if sq < -1e-8:
        warnings.warn(
            f"squared norm {sq:.3e} is significantly negative; "
            "Gram matrix is numerically indefinite",
            RuntimeWarning,
            stacklevel=3,
        )
    return math.sqrt(max(sq, 0.0))


def rkhs_norm(f: RepresenterFunction) -> float:
    """||f||_H.  Tiny negative squared norms from rounding are clamped to 0;
    anything below -1e-8 is flagged as a diagnostic."""
    return _norm_from_square(inner_product(f, f))


def gram_norm(g: GramMatrix, coeffs: np.ndarray):
    """H-norm of the expansion with ``coeffs`` over the points of ``g``:
    sqrt(coeffs . G . coeffs), clamped and flagged as in :func:`rkhs_norm`.

    ``coeffs`` of shape (n, k) holds k expansions as columns and gives an
    array of their k norms, each clamped and flagged, from one
    matrix-matrix product with G.  A vector keeps its own form, because
    routing it through a one-column block changes the last bits of the
    norm.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim not in (1, 2) or coeffs.shape[0] != g.n:
        raise ValueError(f"coeffs have shape {coeffs.shape}, expected ({g.n},) or ({g.n}, k)")
    if coeffs.ndim == 1:
        return _norm_from_square(float(coeffs @ g.entries @ coeffs))
    squares = np.sum(coeffs * (g.entries @ coeffs), axis=0)
    # map calls from C, so the warning's stacklevel still names gram_norm's caller.
    return np.array(list(map(_norm_from_square, squares.tolist())))


def _same_rows(p: PointSet, q: PointSet) -> bool:
    return p is q or (
        p.points.shape == q.points.shape and p.points.tobytes() == q.points.tobytes()
    )


def combine(
    f: RepresenterFunction, g: RepresenterFunction, a: float = 1.0, b: float = 1.0
) -> RepresenterFunction:
    """a*f + b*g as one expansion.  When f and g share one point set (the same
    object or byte-equal rows) that set is kept and the coefficients are added
    row by row; otherwise the anchors of f are followed by those of g.  Anchors
    are never deduplicated: a repeated row only splits a coefficient, and the
    H-norm is the same either way."""
    _require_same_kernel(f, g)
    if f.anchors.dim != g.anchors.dim:
        raise ValueError("anchor dimensions differ")
    if _same_rows(f.anchors, g.anchors):
        return RepresenterFunction(f.kernel, f.anchors, a * f.coeffs + b * g.coeffs)
    pts = PointSet(np.vstack([f.anchors.points, g.anchors.points]))
    return RepresenterFunction(f.kernel, pts, np.concatenate([a * f.coeffs, b * g.coeffs]))


def h_distance(
    f: RepresenterFunction | Sequence[RepresenterFunction],
    g: RepresenterFunction,
    gram_matrix: GramMatrix | None = None,
) -> float | np.ndarray:
    """||f - g||_H via the combined expansion of f - g, built by :func:`combine`.

    ``f`` is a nonempty sequence of expansions, giving an array of their
    distances to g in order; one expansion is a sequence of one and gives a
    float.  When ``gram_matrix`` is supplied and every difference lies on the
    point set of its expansion, whose Gram matrix it is (repeated rows or
    not), the norms are one :func:`gram_norm` call on the (n, k) block of
    difference coefficients, or on the vector of a single expansion, and no
    kernel matrix is built.  Otherwise every member takes :func:`rkhs_norm`.
    """
    single = isinstance(f, RepresenterFunction)
    fs = [f] if single else list(f)
    if not fs:
        raise ValueError("h_distance needs at least one expansion")
    diffs = [combine(fi, g, 1.0, -1.0) for fi in fs]
    if gram_matrix is not None and all(
        d.anchors is fi.anchors and gram_matrix.n == len(d.anchors) for fi, d in zip(fs, diffs)
    ):
        coeffs = diffs[0].coeffs if single else np.column_stack([d.coeffs for d in diffs])
        return gram_norm(gram_matrix, coeffs)
    norms = [rkhs_norm(d) for d in diffs]
    return norms[0] if single else np.array(norms)


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
    and ||g||^2 once per run.
    """
    sq = float(coeffs @ gram_product) - 2.0 * float(coeffs @ g_values) + g_sq
    return _norm_from_square(sq)
