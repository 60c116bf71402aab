"""Kernel families, point sets, and Gram matrices.

Three positive semidefinite families are provided:

* ``gaussian``:    K(x, y) = exp(-||x - y||^2 / (2 * width^2))
* ``linear``:      K(x, y) = x . y
* ``polynomial``:  K(x, y) = (x . y + offset)^degree,  offset >= 0, integer degree >= 1

Gaussian values are computed from coordinate differences directly (never via
the expanded ||x||^2 + ||y||^2 - 2 x.y form), so the diagonal is exactly 1.
Gram matrices are symmetrized by mirroring the upper triangle and carry a
lazily computed, cached eigendecomposition; building one checks positive
semidefiniteness against the scale-aware tolerance 1e-10 * n * max_diag,
where max_diag is the largest diagonal entry (the square of the paper's
kappa on those points; ``sample_kappa`` gives kappa itself).
:func:`low_rank_certificate` proves the same check passes for a Gram matrix
that is never held whole, from a low-rank factor of it.
"""

from __future__ import annotations

import dataclasses
import math
from functools import cached_property

import numpy as np

from .linalg import DiagnosticsError, EigenDecomposition, sym_eigen

VALID_KINDS = ("gaussian", "linear", "polynomial")


@dataclasses.dataclass(frozen=True)
class KernelSpec:
    """Declarative description of one kernel; only the fields its kind uses
    may be set."""

    kind: str
    width: float | None = None
    degree: int | None = None
    offset: float | None = None

    def __post_init__(self) -> None:
        if self.kind == "gaussian":
            if self.width is None or not self.width > 0:
                raise ValueError("gaussian kernel requires width > 0")
            if self.degree is not None or self.offset is not None:
                raise ValueError("gaussian kernel takes only a width")
        elif self.kind == "linear":
            if (self.width, self.degree, self.offset) != (None, None, None):
                raise ValueError("linear kernel takes no parameters")
        elif self.kind == "polynomial":
            if self.degree is None or self.degree < 1 or int(self.degree) != self.degree:
                raise ValueError("polynomial kernel requires integer degree >= 1")
            if self.offset is None or self.offset < 0:
                raise ValueError("polynomial kernel requires offset >= 0")
            if self.width is not None:
                raise ValueError("polynomial kernel takes no width")
        else:
            raise ValueError(f"unknown kernel kind {self.kind!r}")

    @staticmethod
    def gaussian(width: float) -> "KernelSpec":
        return KernelSpec(kind="gaussian", width=float(width))

    @staticmethod
    def linear() -> "KernelSpec":
        return KernelSpec(kind="linear")

    @staticmethod
    def polynomial(degree: int, offset: float) -> "KernelSpec":
        return KernelSpec(kind="polynomial", degree=int(degree), offset=float(offset))

    def to_json_dict(self) -> dict:
        if self.kind == "gaussian":
            return {"kind": "gaussian", "width": self.width}
        if self.kind == "linear":
            return {"kind": "linear"}
        return {"kind": "polynomial", "degree": self.degree, "offset": self.offset}

    @staticmethod
    def from_json_dict(obj: dict) -> "KernelSpec":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ValueError("kernel spec must be an object with a 'kind' key")
        extra = set(obj) - {"kind", "width", "degree", "offset"}
        if extra:
            raise ValueError(f"kernel spec has unknown keys {sorted(extra)}")
        return KernelSpec(
            kind=obj["kind"],
            width=obj.get("width"),
            degree=obj.get("degree"),
            offset=obj.get("offset"),
        )


@dataclasses.dataclass(frozen=True, eq=False)
class PointSet:
    """Finite ordered collection of points in R^d, stored as an (n, d) array.

    1-D input is read as n points on the real line.  Rows may repeat.
    """

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError(f"points must form an (n, d) array, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def _as_points(x) -> np.ndarray:
    pts = x.points if isinstance(x, PointSet) else np.asarray(x, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    return pts


# Largest temporary, in bytes, that a gaussian kernel matrix allocates beside
# its (n, m) result; rows are processed in blocks that fit it.
_BLOCK_BYTES = 1 << 23


def _gaussian_matrix(a: np.ndarray, b: np.ndarray, width: float) -> np.ndarray:
    """exp(-||a_i - b_j||^2 / (2 width^2)) without an (n, m, d) temporary.

    The squared distances carry the bits of
    ``np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)``: numpy sums
    fewer than 8 terms left to right, which the coordinate loop repeats, and
    pairwise from 8 terms on, which only the broadcast reproduces, so d >= 8
    keeps the broadcast over row blocks.
    """
    n, m, d = a.shape[0], b.shape[0], a.shape[1]
    loop = 0 < d < 8
    out = np.empty((n, m))
    step = max(1, _BLOCK_BYTES // max(1, m * 8 * (1 if loop else d)))
    for lo in range(0, n, step):
        rows = a[lo : lo + step]
        d2 = out[lo : lo + step]
        if loop:
            np.subtract.outer(rows[:, 0], b[:, 0], out=d2)
            np.square(d2, out=d2)
            for k in range(1, d):
                diff = np.subtract.outer(rows[:, k], b[:, k])
                np.square(diff, out=diff)
                d2 += diff
        else:
            diff = rows[:, None, :] - b[None, :, :]
            np.square(diff, out=diff)
            np.sum(diff, axis=-1, out=d2)
    np.negative(out, out=out)
    out /= 2.0 * width**2
    return np.exp(out, out=out)


def kernel_matrix(spec: KernelSpec, xs, ys) -> np.ndarray:
    """All pairwise kernel values, shape (len(xs), len(ys))."""
    a, b = _as_points(xs), _as_points(ys)
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"point dimensions differ: {a.shape[1]} vs {b.shape[1]}")
    if spec.kind == "gaussian":
        return _gaussian_matrix(a, b, spec.width)
    if spec.kind == "linear":
        return a @ b.T
    return (a @ b.T + spec.offset) ** spec.degree


def eval_kernel(spec: KernelSpec, x, y) -> float:
    """K(x, y) for two single points."""
    a = np.atleast_1d(np.asarray(x, dtype=float))
    b = np.atleast_1d(np.asarray(y, dtype=float))
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("eval_kernel expects single points")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("points must be finite")
    return float(kernel_matrix(spec, a[None, :], b[None, :])[0, 0])


def kernel_diag(spec: KernelSpec, xs) -> np.ndarray:
    """K(x_i, x_i) for each point, without forming the full matrix."""
    a = _as_points(xs)
    if spec.kind == "gaussian":
        return np.ones(a.shape[0])
    sq = np.sum(a * a, axis=1)
    if spec.kind == "linear":
        return sq
    return (sq + spec.offset) ** spec.degree


def sample_kappa(spec: KernelSpec, xs) -> float:
    """kappa = max sqrt(K(x_i, x_i)) over the given points."""
    return math.sqrt(max(float(np.max(kernel_diag(spec, xs))), 0.0))


def kappa_upper_bound(spec: KernelSpec, lo, hi) -> float:
    """sup of K(x, x) over the axis-aligned box [lo, hi].

    ||x||^2 is coordinatewise convex, so the sup sits at a box corner.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if spec.kind == "gaussian":
        return 1.0
    corner_sq = float(np.sum(np.maximum(lo**2, hi**2)))
    if spec.kind == "linear":
        return corner_sq
    return float((corner_sq + spec.offset) ** spec.degree)


# The PSD check's tolerance, as a multiple of n * max_diag.
PSD_TOL = 1e-10


def low_rank_certificate(
    spec: KernelSpec, pts, factor: np.ndarray, coeffs
) -> tuple[float, np.ndarray]:
    """Certificate of the factor L ~ G and the exact product G @ coeffs, for
    the Gram matrix G of ``pts``.

    One pass over G in row blocks of at most 8 MiB, never an n x n array.
    The certificate is ||G - L L^T||_F + n * r * eps * max_diag: the computed
    Frobenius norm plus a bound on the rounding in forming the difference.
    L L^T is PSD, so min eig(G) >= -||G - L L^T||_F, and a certificate at or
    below PSD_TOL * n * max_diag proves that ``GramMatrix`` of these points
    would pass its PSD check.
    """
    x = _as_points(pts)
    n, r = factor.shape
    coeffs = np.asarray(coeffs, dtype=float)
    product = np.empty(n)
    square = 0.0
    step = max(1, _BLOCK_BYTES // (8 * n))
    for lo in range(0, n, step):
        block = kernel_matrix(spec, x[lo : lo + step], x)
        product[lo : lo + step] = block @ coeffs
        block -= factor[lo : lo + step] @ factor.T
        square += float(np.vdot(block, block))
    max_diag = float(np.max(kernel_diag(spec, x)))
    return math.sqrt(square) + n * r * np.finfo(float).eps * max_diag, product


class GramMatrix:
    """Symmetric PSD matrix of pairwise kernel values.

    ``entries[i, j] == entries[j, i]`` holds exactly (upper triangle is
    mirrored), ``max_diag`` is the largest diagonal entry (the scale of the
    PSD tolerance), and ``eigen`` is computed once on first use and reused by
    every solve.
    """

    def __init__(self, entries):
        m = np.asarray(entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError(f"Gram matrix must be square and nonempty, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("Gram matrix has non-finite entries")
        # Compared bit for bit, so skipping the mirror is exactly a no-op;
        # gaussian Gram matrices always take this branch.
        if np.array_equal(m.view(np.int64), m.T.view(np.int64)):
            m = m.copy()
        else:
            scale = float(np.max(np.abs(m)))
            asym = float(np.max(np.abs(m - m.T)))
            if asym > 1e-12 * scale:
                raise ValueError(
                    f"entries are not symmetric: max asymmetry {asym:.3e}"
                )
            m = np.triu(m) + np.triu(m, 1).T
        m.setflags(write=False)
        self.entries = m
        self.max_diag = float(np.max(np.diag(m)))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def eigen(self) -> EigenDecomposition:
        """Cached decomposition; raises DiagnosticsError if the matrix fails
        the PSD check min eigenvalue >= -1e-10 * n * max_diag."""
        eig = sym_eigen(self)
        tol = PSD_TOL * self.n * self.max_diag
        low = float(eig.eigenvalues[-1])
        if low < -tol:
            raise DiagnosticsError(
                f"Gram matrix is not positive semidefinite: min eigenvalue "
                f"{low:.6e} is below -{tol:.6e}"
            )
        return eig


def gram(spec: KernelSpec, pts: PointSet) -> GramMatrix:
    """Gram matrix of one point set under one kernel."""
    if not isinstance(pts, PointSet):
        pts = PointSet(pts)
    return GramMatrix(kernel_matrix(spec, pts, pts))
