"""Functions represented as finite kernel expansions, and the inner product,
norm, and distance they inherit from their kernel.

A function is f = sum_i coeffs[i] * K(anchors[i], .).  The reproducing
property makes evaluation an inner product against the kernel section at the
query point, and makes the squared norm a Gram quadratic form; both are used
all over the solver and experiment code, so the implementations here stay in
pure vectorized numpy.  An H-distance between two expansions over one point
set reuses that set's Gram matrix when the caller supplies it.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np

from .kernels import GramMatrix, KernelSpec, PointSet, kernel_matrix, row_keys


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


def gram_norm(g: GramMatrix, coeffs: np.ndarray) -> float:
    """H-norm of the expansion with ``coeffs`` over the points of ``g``:
    sqrt(coeffs . G . coeffs), clamped and flagged as in :func:`rkhs_norm`."""
    return _norm_from_square(float(coeffs @ g.entries @ coeffs))


def _same_rows(p: PointSet, q: PointSet) -> bool:
    return p is q or (
        p.points.shape == q.points.shape and p.points.tobytes() == q.points.tobytes()
    )


def combine(
    f: RepresenterFunction, g: RepresenterFunction, a: float = 1.0, b: float = 1.0
) -> RepresenterFunction:
    """a*f + b*g as one expansion; byte-identical anchor rows are merged
    (first occurrence kept, coefficients summed left to right).  When f and g
    share one point set whose rows are distinct, that set is kept and the
    coefficients are added row by row."""
    _require_same_kernel(f, g)
    if f.anchors.dim != g.anchors.dim:
        raise ValueError("anchor dimensions differ")
    if _same_rows(f.anchors, g.anchors) and f.anchors.distinct_rows:
        # Row i of f merges with row i of g and nothing else: the general
        # merge below would compute exactly these sums.
        return RepresenterFunction(f.kernel, f.anchors, a * f.coeffs + b * g.coeffs)
    pts = np.vstack([f.anchors.points, g.anchors.points])
    cs = np.concatenate([a * f.coeffs, b * g.coeffs])
    # Rows compared as raw bytes, so -0.0 and 0.0 stay apart.
    keys = row_keys(pts)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rows = first[order]
    group = np.argsort(order)[inverse.ravel()]
    merged = cs[rows]
    later = np.ones(cs.shape[0], dtype=bool)
    later[rows] = False
    # np.add.at is unbuffered and visits indices in order, so each duplicate
    # is added left to right, as a running sum would.
    np.add.at(merged, group[later], cs[later])
    return RepresenterFunction(f.kernel, PointSet(pts[rows]), merged)


def h_distance(
    f: RepresenterFunction,
    g: RepresenterFunction,
    gram_matrix: GramMatrix | None = None,
) -> float:
    """||f - g||_H via the merged expansion of f - g.

    ``gram_matrix`` may be supplied when the caller already holds the Gram
    matrix of ``f.anchors``.  It is used when the merged anchors are exactly
    ``f.anchors`` (same rows, byte for byte, as when f and g are expansions
    over one duplicate-free point set); the norm is then its quadratic form
    and no kernel matrix is built.  Otherwise the merged expansion's own
    kernel matrix is formed, as without it.
    """
    d = combine(f, g, 1.0, -1.0)
    if (
        gram_matrix is not None
        and gram_matrix.n == len(d.anchors)
        and _same_rows(d.anchors, f.anchors)
    ):
        return gram_norm(gram_matrix, d.coeffs)
    return rkhs_norm(d)
