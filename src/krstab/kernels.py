"""Kernel families, point sets, and Gram matrices.

Three positive semidefinite families are provided:

* ``gaussian``:    K(x, y) = exp(-||x - y||^2 / (2 * width^2))
* ``linear``:      K(x, y) = x . y
* ``polynomial``:  K(x, y) = (x . y + offset)^degree,  offset >= 0, integer degree >= 1

Gaussian values are computed from coordinate differences directly (never via
the expanded ||x||^2 + ||y||^2 - 2 x.y form), so the diagonal is exactly 1.
In any dimension each coordinate's differences are one subtraction in a
single column, such as a pivot column of the thm1 low-rank route, and one
matrix product [a_k, -1] @ [1, b_k]^T in a wider matrix; the product's
entries are sums of two exact products, rounded once, so they are the bits
of a_ik - b_jk whatever BLAS does.  The squared differences are summed
left to right.
Gram matrices are symmetrized by mirroring the upper triangle and carry a
lazily computed, cached eigendecomposition; building one checks positive
semidefiniteness against the scale-aware tolerance 1e-10 * n * max_diag,
where max_diag is the largest diagonal entry (the square of the paper's
kappa on those points; ``sample_kappa`` gives kappa itself).
:func:`rounding_constant` bounds each computed entry's distance from the
exact, PSD kernel value, which proves the same check passes for a Gram
matrix that is never built, without a kernel value.
"""

from __future__ import annotations

import dataclasses
import math
from functools import cached_property

import numpy as np

from .linalg import DiagnosticsError, EigenDecomposition, sym_eigen


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


# Largest temporary, in bytes, that a gaussian kernel matrix of more than one
# column allocates beside its (n, m) result and a (2, m) operand; rows are
# processed in blocks that fit it (at least one row).  Blocking changes no
# bit.  Measured on a 2-vCPU Xeon (2 MiB L2 per core) with 1 BLAS thread,
# medians of 41 alternating rounds: a 1000 x 1000, d = 4 Gram took 7.4 ms at
# 512 KiB and 10.8 ms at 1 MiB.  An (N, 1) pivot column is not blocked: it
# allocates one N-vector.
_BLOCK_BYTES = 1 << 19


def _gaussian_matrix(a: np.ndarray, b: np.ndarray, width: float) -> np.ndarray:
    """exp(-||a_i - b_j||^2 / (2 width^2)) without an (n, m, d) temporary.

    Each squared distance is the left-to-right sum of the squared coordinate
    differences, the order numpy's own reduction uses below 8 terms, and
    never the expanded ||a_i||^2 + ||b_j||^2 - 2 a_i.b_j.  A single column
    (m == 1, as a pivot column is) takes coordinate k's differences as one
    subtraction a_k - b_1k.  A wider matrix takes them as one matrix product
    [a_k, -1] @ [1, b_k]^T, which is faster there: entry (i, j) is the sum
    of the exact products a_ik * 1 and -1 * b_jk, rounded once, so it is
    a_ik - b_jk bit for bit under any BLAS summation order, with or without
    FMA (only the sign of a zero may differ, and squaring drops it).  Either
    way each difference is rounded once, so both forms give the same bits.
    Dividing by -2 width^2 gives the bits of negating and dividing by
    2 width^2, since IEEE division is sign-symmetric.
    """
    n, m, d = a.shape[0], b.shape[0], a.shape[1]
    # Points without coordinates are at distance 0; the loops write nothing.
    out = np.empty((n, m)) if d else np.zeros((n, m))
    if m == 1:
        # A pivot column: one subtraction per coordinate and no operands to
        # build, 0.6 times the product form's time at N = 128, d = 1.
        col, diff = out[:, 0], np.empty(n)
        for k in range(d):
            dk = np.subtract(a[:, k], b[0, k], out=diff if k else col)
            np.square(dk, out=dk)
            if k:
                col += dk
    else:
        # Per block row: its differences and 2 left-operand entries.
        step = max(1, _BLOCK_BYTES // (8 * (m + 2)))
        left, right = np.empty((2, min(n, step))), np.empty((2, m))
        left[1], right[0] = -1.0, 1.0
        for lo in range(0, n, step):
            rows = a[lo : lo + step]
            d2 = out[lo : lo + step]
            ops = left[:, : rows.shape[0]]
            for k in range(d):
                ops[0], right[1] = rows[:, k], b[:, k]
                diff = np.matmul(ops.T, right, out=None if k else d2)
                np.square(diff, out=diff)
                if k:
                    d2 += diff
    np.divide(out, -2.0 * width**2, out=out)
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
    """K(x, y) for two single points: the paper's kernel as a function, kept
    public for that reason although the library itself builds matrices."""
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
# Assumed error of numpy's exp, in units of u = 2^-53 relative to its result:
# 2 ulp.  Its SIMD exp is not correctly rounded; it measured at most 1.17 u
# on [-745, 0] (AVX-512, numpy 2.4).
_EXP_ERROR = 4.0


def rounding_constant(spec: KernelSpec, dim: int) -> float:
    """c such that each entry of ``kernel_matrix`` on points in R^dim is
    within c * u * sqrt(K(x, x) K(y, y)) <= c * u * max_diag of the exact
    K(x, y), u = 2^-53, whatever order BLAS sums in.

    Every family is PSD by theorem (Bochner for the gaussian, a finite
    feature map for the linear and polynomial kernels), so by Weyl's
    inequality a computed n x n Gram matrix, mirrored from its upper
    triangle as ``GramMatrix`` does, has min eigenvalue >= -n * c * u *
    max_diag: c * u <= PSD_TOL proves that its PSD check passes, for any n
    and points, in O(1).  The counts are first order in u (Higham,
    *Accuracy and Stability*, ch. 3); wherever c * u <= PSD_TOL the higher
    orders add under 1e-10 of c:

    * gaussian: the exponent t = -||x - y||^2 / (2 width^2) <= 0 carries a
      relative error of at most (dim + 3) u (each difference and its square
      rounded once, dim - 1 additions in any order, width^2 and the
      division), which moves e^t by at most |t| e^t (dim + 3) u <=
      (dim + 3) u / e; exp itself adds _EXP_ERROR * u;
    * polynomial of degree p, the linear kernel being p = 1 with offset 0:
      x . y + offset is within (dim + 1) u R, R = sqrt((|x|^2 + offset)
      (|y|^2 + offset)), by Cauchy-Schwarz; the power multiplies that by
      p R^(p - 1) and is itself exact at p = 1, correctly rounded at p = 2
      and within 2 u (1.15 u measured) from p = 3 on, so p (dim + 2) covers
      it, with R^p = sqrt(K(x, x) K(y, y)).
    """
    if spec.kind == "gaussian":
        return (dim + 3) / math.e + _EXP_ERROR
    return (spec.degree or 1) * (dim + 2)


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
