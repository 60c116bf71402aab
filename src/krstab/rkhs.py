"""Functions represented as finite kernel expansions, and the inner product,
norm, and distance they inherit from their kernel.

A function is f = sum_i coeffs[i] * K(anchors[i], .).  The reproducing
property makes evaluation an inner product against the kernel section at the
query point, and makes the squared norm a Gram quadratic form; both are used
all over the solver and experiment code, so the implementations here stay in
pure vectorized numpy.  Expansions are never deduplicated: two expansions
over one point set combine by adding coefficients, any others by
concatenation.  An H-distance between two expansions over one point set,
repeated rows or not, reuses that set's Gram matrix when the caller supplies
it.  :func:`h_distance` also takes a sequence of expansions against one
reference; when every difference lies on that point set, their k distances
are one Gram quadratic form on the (n, k) block of coefficients, as the
thm2 harness uses for each t's trials.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from collections.abc import Sequence

import numpy as np

from .kernels import GramMatrix, KernelSpec, PointSet, kernel_matrix


@dataclasses.dataclass(frozen=True, eq=False)
class RepresenterFunction:
    """Finite kernel expansion: anchors (n, d) with one coefficient each."""

    kernel: KernelSpec
    anchors: PointSet
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.anchors, PointSet):
            object.__setattr__(self, "anchors", PointSet(self.anchors))
        c = np.asarray(self.coeffs, dtype=float).copy()
        if c.ndim != 1 or c.shape[0] != len(self.anchors):
            raise ValueError(
                f"coeffs must be a vector of length {len(self.anchors)}, got shape {c.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("coeffs must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def to_json_dict(self) -> dict:
        return {
            "kernel": self.kernel.to_json_dict(),
            "anchors": self.anchors.points.tolist(),
            "coeffs": self.coeffs.tolist(),
        }

    @staticmethod
    def from_json_dict(obj: dict) -> "RepresenterFunction":
        keys = {"kernel", "anchors", "coeffs"}
        extra = set(obj) - keys
        if extra:
            raise ValueError(f"function object has unknown keys {sorted(extra)}")
        missing = keys - set(obj)
        if missing:
            raise ValueError(f"function object is missing keys {sorted(missing)}")
        return RepresenterFunction(
            kernel=KernelSpec.from_json_dict(obj["kernel"]),
            anchors=PointSet(np.asarray(obj["anchors"], dtype=float)),
            coeffs=np.asarray(obj["coeffs"], dtype=float),
        )


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
    matrix-matrix product with G.
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
    """||f - g||_H via the combined expansion of f - g.

    ``gram_matrix`` may be supplied when the caller already holds the Gram
    matrix of ``f.anchors``.  It is used when f and g are expansions over that
    one point set, repeated rows or not; the norm is then its quadratic form
    and no kernel matrix is built.  Otherwise the combined expansion's own
    kernel matrix is formed, as without it.

    ``f`` may also be a nonempty sequence of expansions; the result is then
    an array of their distances to g, in order.  Each difference is built by
    :func:`combine` as for one expansion.  When every difference takes the
    Gram route, the k norms come from one :func:`gram_norm` call on the
    (n, k) block of difference coefficients (one matrix-matrix product with
    G); otherwise each member takes the one-expansion path.
    """
    if isinstance(f, RepresenterFunction):
        return _difference_norm(f, combine(f, g, 1.0, -1.0), gram_matrix)
    fs = list(f)
    if not fs:
        raise ValueError("h_distance needs at least one expansion")
    diffs = [combine(fi, g, 1.0, -1.0) for fi in fs]
    if all(_on_gram(fi, d, gram_matrix) for fi, d in zip(fs, diffs)):
        return gram_norm(gram_matrix, np.column_stack([d.coeffs for d in diffs]))
    return np.array([_difference_norm(fi, d, gram_matrix) for fi, d in zip(fs, diffs)])


def _on_gram(f: RepresenterFunction, d: RepresenterFunction, gram_matrix) -> bool:
    """Whether the difference d = f - g lies on the point set of f, whose
    Gram matrix the caller supplied."""
    return gram_matrix is not None and d.anchors is f.anchors and gram_matrix.n == len(d.anchors)


def _difference_norm(f: RepresenterFunction, d: RepresenterFunction, gram_matrix) -> float:
    if _on_gram(f, d, gram_matrix):
        return gram_norm(gram_matrix, d.coeffs)
    return rkhs_norm(d)
