"""Functions represented as finite kernel expansions, and the inner product,
norm, and distance they inherit from their kernel.

A function is f = sum_i coeffs[i] * K(anchors[i], .).  The reproducing
property makes evaluation an inner product against the kernel section at the
query point, and makes the squared norm a Gram quadratic form; both are used
all over the solver and experiment code, so the implementations here stay in
pure vectorized numpy.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np

from .kernels import KernelSpec, PointSet, kernel_matrix


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


def rkhs_norm(f: RepresenterFunction) -> float:
    """||f||_H.  Tiny negative squared norms from rounding are clamped to 0;
    anything below -1e-8 is flagged as a diagnostic."""
    sq = inner_product(f, f)
    if sq < -1e-8:
        warnings.warn(
            f"squared norm {sq:.3e} is significantly negative; "
            "Gram matrix is numerically indefinite",
            RuntimeWarning,
            stacklevel=2,
        )
    return math.sqrt(max(sq, 0.0))


def combine(
    f: RepresenterFunction, g: RepresenterFunction, a: float = 1.0, b: float = 1.0
) -> RepresenterFunction:
    """a*f + b*g as one expansion; exactly duplicated anchor rows are merged
    (first occurrence kept, coefficients summed)."""
    _require_same_kernel(f, g)
    if f.anchors.dim != g.anchors.dim:
        raise ValueError("anchor dimensions differ")
    pts = np.vstack([f.anchors.points, g.anchors.points])
    cs = np.concatenate([a * f.coeffs, b * g.coeffs])
    seen: dict[bytes, int] = {}
    rows: list[int] = []
    merged: list[float] = []
    for i in range(pts.shape[0]):
        key = pts[i].tobytes()
        at = seen.get(key)
        if at is None:
            seen[key] = len(rows)
            rows.append(i)
            merged.append(float(cs[i]))
        else:
            merged[at] += float(cs[i])
    return RepresenterFunction(f.kernel, PointSet(pts[rows]), np.asarray(merged))


def h_distance(f: RepresenterFunction, g: RepresenterFunction) -> float:
    """||f - g||_H via the merged expansion of f - g."""
    return rkhs_norm(combine(f, g, 1.0, -1.0))
