"""Kernel families, point sets, and Gram matrices.

Three positive semidefinite families are provided:

* ``gaussian``:    K(x, y) = exp(-||x - y||^2 / (2 * width^2))
* ``linear``:      K(x, y) = x . y
* ``polynomial``:  K(x, y) = (x . y + offset)^degree,  offset >= 0, integer degree >= 1

Gaussian values are computed from coordinate differences directly (never via
the expanded ||x||^2 + ||y||^2 - 2 x.y form), so the diagonal is exactly 1.
:func:`kernel_matrix` takes each coordinate's differences as one matrix
product [a_k, -1] @ [1, b_k]^T, whatever the dimension and shape; the
product's entries are sums of two exact products, rounded once, so they are
the bits of a_ik - b_jk whatever BLAS does.  The squared differences are
summed left to right.  :func:`column_evaluator` is the one single-column
path: the thm1 low-rank route builds it once per row and calls it for each
pivot column without ``kernel_matrix``'s per-call checks, and it takes the
differences by subtraction, with the same bits.
Gram matrices are symmetrized by mirroring the upper triangle and carry a
lazily computed, cached eigendecomposition; building one checks positive
semidefiniteness against the scale-aware tolerance 1e-10 * n * max_diag,
where max_diag is the largest diagonal entry (the square of the paper's
kappa on those points; ``sample_kappa`` gives kappa itself).
:func:`rounding_constant` bounds each computed entry's distance from the
exact, PSD kernel value, which proves the same check passes for a Gram
matrix that is never built, without a kernel value.  :func:`kernel_matrix`
refuses a matrix of more than ``MAX_ENTRIES`` entries before allocating it.
Raw points become a :class:`PointSet` wherever they enter, in
:func:`kernel_matrix` and :func:`kernel_diag` too, with its 1-D rule and its
shape check, so no kernel value of a nan or inf point comes back.  Every
array this module takes (points, Gram entries, the box of
:func:`kappa_upper_bound`) is read by :func:`~krstab.linalg._as_floats`,
which refuses a bool, a non-number, nan and inf by the argument's name.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .linalg import (
    DiagnosticsError,
    EigenDecomposition,
    Frozen,
    FrozenValue,
    _as_count,
    _as_floats,
    _as_real,
    sym_eigen,
)
from .stability import _in_float_range


def _float(value, name: str) -> float:
    """float(value) for a factory, after KernelSpec's finite-number check."""
    return float(_as_real(value, f"kernel {name}", ""))


class KernelSpec(FrozenValue):
    """Declarative description of one kernel; only the fields its kind uses
    may be set."""

    def __init__(
        self,
        kind: str,
        width: float | None = None,
        degree: int | None = None,
        offset: float | None = None,
    ) -> None:
        if kind == "gaussian":
            if width is None:
                raise ValueError("gaussian kernel requires width > 0")
            _as_real(width, "kernel width")
            try:  # the divisor of kernel_matrix's exponent, which float ** may overflow
                scale = 2.0 * width**2
            except OverflowError:
                scale = math.inf
            if not 0.0 < scale < math.inf:
                raise ValueError(
                    f"gaussian kernel requires 2 * width^2 to be a positive finite float, "
                    f"got width {width!r}"
                )
            if degree is not None or offset is not None:
                raise ValueError("gaussian kernel takes only a width")
        elif kind == "linear":
            if (width, degree, offset) != (None, None, None):
                raise ValueError("linear kernel takes no parameters")
        elif kind == "polynomial":
            if degree is None:
                raise ValueError("polynomial kernel requires integer degree >= 1")
            _as_real(degree, "kernel degree", "")  # names a nan, inf or bool degree as not finite
            degree = _as_count(degree, "degree")
            if offset is None:
                raise ValueError("polynomial kernel requires offset >= 0")
            _as_real(offset, "kernel offset", ">= 0")
            if width is not None:
                raise ValueError("polynomial kernel takes no width")
        else:
            raise ValueError(f"unknown kernel kind {kind!r}")
        vars(self).update(kind=kind, width=width, degree=degree, offset=offset)

    @staticmethod
    def gaussian(width: float) -> "KernelSpec":
        return KernelSpec(kind="gaussian", width=_float(width, "width"))

    @staticmethod
    def linear() -> "KernelSpec":
        return KernelSpec(kind="linear")

    @staticmethod
    def polynomial(degree: int, offset: float) -> "KernelSpec":
        return KernelSpec(kind="polynomial", degree=degree, offset=_float(offset, "offset"))

    def to_json_dict(self) -> dict:
        return {key: value for key, value in vars(self).items() if value is not None}


class PointSet(Frozen):
    """Finite ordered collection of points in R^d, stored as an (n, d) array.

    1-D input is read as n points on the real line.  Rows may repeat.
    """

    def __init__(self, points) -> None:
        pts = _as_floats(points, "points")
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError(f"points must form an (n, d) array, got shape {pts.shape}")
        pts = pts.copy()
        pts.setflags(write=False)
        vars(self)["points"] = pts

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def _point_set(x) -> PointSet:
    """``x`` itself if it is a PointSet, else ``PointSet(x)``: the one
    reading of raw points."""
    return x if isinstance(x, PointSet) else PointSet(x)


# Largest temporary, in bytes, that a gaussian kernel matrix allocates beside
# its (n, m) result and a (2, m) operand; rows are processed in blocks that fit
# it (at least one row).  Blocking changes no bit.  Measured on a 2-vCPU Xeon
# (2 MiB L2 per core) with 1 BLAS thread, medians of 41 alternating rounds: a
# 1000 x 1000, d = 4 Gram took 7.4 ms at 512 KiB and 10.8 ms at 1 MiB.
_BLOCK_BYTES = 1 << 19


def _gaussian_matrix(a: np.ndarray, b: np.ndarray, width: float) -> np.ndarray:
    """exp(-||a_i - b_j||^2 / (2 width^2)) without an (n, m, d) temporary.

    Each squared distance is the left-to-right sum of the squared coordinate
    differences, the order numpy's own reduction uses below 8 terms, and
    never the expanded ||a_i||^2 + ||b_j||^2 - 2 a_i.b_j.  Coordinate k's
    differences are one matrix product [a_k, -1] @ [1, b_k]^T, whatever the
    shape, a single column included: entry (i, j) is the sum of the exact
    products a_ik * 1 and -1 * b_jk, rounded once, so it is a_ik - b_jk bit
    for bit under any BLAS summation order, with or without FMA (only the
    sign of a zero may differ, and squaring drops it).  So its bits are those
    of :func:`column_evaluator`'s subtractions.  Dividing by -2 width^2 gives
    the bits of negating and dividing by 2 width^2, since IEEE division is
    sign-symmetric.

    A difference, square, sum or quotient beyond the float range (points
    1e300 apart, or a subnormal 2 width^2) is inf, whose kernel value
    exp(-inf) = 0 is the exact limit, so those overflows are not reported.
    """
    n, m, d = a.shape[0], b.shape[0], a.shape[1]
    out = np.empty((n, m))
    # Per block row: its differences and 2 left-operand entries.
    step = max(1, _BLOCK_BYTES // (8 * (m + 2)))
    left, right = np.empty((2, min(n, step))), np.empty((2, m))
    left[1], right[0] = -1.0, 1.0
    with np.errstate(over="ignore"):
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


def column_evaluator(spec: KernelSpec, pts: PointSet):
    """p -> K(x, x_p) over the points x of ``pts``, a fresh N-vector with the
    bits of ``kernel_matrix(spec, x, x[p : p + 1])[:, 0]``.

    Built once for a caller that reads many columns, such as a thm1 low-rank
    row's pivoted Cholesky factor.  A gaussian evaluator is the package's
    only single-column formula: it holds the coordinates as contiguous rows
    and the divisor -2 width^2, skips ``kernel_matrix``'s per-call checks,
    and takes coordinate k's differences as one subtraction x_k - x_pk,
    rounded once as :func:`_gaussian_matrix`'s products are, squared and
    added to the earlier ones left to right.  Linear and polynomial columns
    call ``kernel_matrix`` with ``pts`` itself, so only the one-point slice
    becomes a new PointSet.  The gaussian closure overflows as
    :func:`_gaussian_matrix` does, to the exact value 0, but does not enter
    ``np.errstate`` per column: a caller that may see such inputs enters it
    once around all its columns, as the thm1 low-rank row does.
    """
    x = pts.points
    if spec.kind != "gaussian":
        return lambda p: kernel_matrix(spec, pts, x[p : p + 1])[:, 0]
    coords, divisor = list(np.ascontiguousarray(x.T)), -2.0 * spec.width**2
    diff = np.empty(x.shape[0])

    def column(p: int) -> np.ndarray:
        point = x[p]
        out = np.subtract(coords[0], point[0])
        np.square(out, out=out)
        for k in range(1, len(point)):
            np.subtract(coords[k], point[k], out=diff)
            np.square(diff, out=diff)
            out += diff
        np.divide(out, divisor, out=out)
        return np.exp(out, out=out)

    return column


# Most entries one kernel matrix may have (see kernel_matrix), and the most a
# thm1 row's low-rank factor or sample may hold (see krstab.experiments).
MAX_ENTRIES = 1 << 27


def kernel_matrix(spec: KernelSpec, xs, ys) -> np.ndarray:
    """All pairwise kernel values, shape (len(xs), len(ys)).

    Every dense kernel block of the package is allocated here, so this is
    where an oversized one is refused: above ``MAX_ENTRIES`` = 2^27 entries
    (1 GiB of float64) a :class:`~krstab.linalg.DiagnosticsError` naming n,
    m and the bytes is raised before anything is allocated.  A dense
    command's peak resident set is about 5 times the bytes of its Gram
    matrix G, on top of a ~33 MB base.  The peak is inside ``eigh``: G and
    numpy's copy of it, LAPACK dsyevd's workspace of 1 + 6n + 2n^2 doubles,
    and the eigenvector output (gram's 2 G and sym_eigen's descending copy
    are smaller and come before and after it).
    ``spectrum`` on n = 1024 / 2048 / 4096 points measured 72 / 197 / 690 MB
    peak for G of 8 / 32 / 128 MB (2-vCPU Xeon, 1 BLAS thread).  So the
    limit admits a square matrix up to n = 11585 at ~5 GiB peak.  It is a
    property of the input, not of the host's free memory, so a row is
    flagged on every host or on none.
    """
    a, b = _point_set(xs).points, _point_set(ys).points
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"point dimensions differ: {a.shape[1]} vs {b.shape[1]}")
    n, m = a.shape[0], b.shape[0]
    if n * m > MAX_ENTRIES:
        raise DiagnosticsError(
            f"a {n} x {m} kernel matrix needs {8 * n * m} bytes, above the limit of "
            f"{MAX_ENTRIES} entries ({8 * MAX_ENTRIES} bytes)"
        )
    if spec.kind == "gaussian":
        return _gaussian_matrix(a, b, spec.width)
    if spec.kind == "linear":
        return a @ b.T
    return (a @ b.T + spec.offset) ** spec.degree


def eval_kernel(spec: KernelSpec, x, y) -> float:
    """K(x, y) for two single points: the paper's kernel as a function, kept
    public for that reason although the library itself builds matrices."""
    a, b = (np.atleast_1d(_as_floats(v, "points")) for v in (x, y))
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("eval_kernel expects single points")
    return float(kernel_matrix(spec, a[None, :], b[None, :])[0, 0])


def kernel_diag(spec: KernelSpec, xs) -> np.ndarray:
    """K(x_i, x_i) for each point, without forming the full matrix."""
    a = _point_set(xs).points
    if spec.kind == "gaussian":
        return np.ones(a.shape[0])
    sq = np.sum(a * a, axis=1)
    if spec.kind == "linear":
        return sq
    return (sq + spec.offset) ** spec.degree


def sample_kappa(spec: KernelSpec, xs) -> float:
    """kappa = max sqrt(K(x_i, x_i)) over the given points."""
    return math.sqrt(max(float(np.max(kernel_diag(spec, xs))), 0.0))


@_in_float_range("kappa_upper_bound = sup K(x, x) over the box")
def kappa_upper_bound(spec: KernelSpec, lo, hi) -> float:
    """sup of K(x, x) over the axis-aligned box [lo, hi].

    ||x||^2 is coordinatewise convex, so the sup sits at a box corner.  A sup
    beyond the float range is a ValueError naming it, as in
    :mod:`krstab.stability`.
    """
    lo, hi = _as_floats(lo, "lo"), _as_floats(hi, "hi")
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
    every solve.  ``kernel`` and ``pts`` are the kernel and points that
    :func:`gram` built it from, or None for a matrix built from raw entries.
    """

    kernel: KernelSpec | None = None
    pts: PointSet | None = None

    def __init__(self, entries):
        m = _as_floats(entries, "Gram matrix entries")
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError(f"Gram matrix must be square and nonempty, got {m.shape}")
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

    @property
    def psd_tol(self) -> float:
        """tau = 1e-10 * n * max_diag: how far below 0 the PSD check lets a
        computed eigenvalue fall, and how far above 0 a regularized solve
        needs the smallest shifted one."""
        return PSD_TOL * self.n * self.max_diag

    @cached_property
    def eigen(self) -> EigenDecomposition:
        """Cached decomposition; raises DiagnosticsError if the matrix fails
        the PSD check min eigenvalue >= -psd_tol."""
        eig = sym_eigen(self)
        tol = self.psd_tol
        low = float(eig.eigenvalues[-1])
        if low < -tol:
            raise DiagnosticsError(
                f"Gram matrix is not positive semidefinite: min eigenvalue "
                f"{low:.6e} is below -{tol:.6e}"
            )
        return eig


def gram(spec: KernelSpec, pts: PointSet) -> GramMatrix:
    """Gram matrix of one point set under one kernel, which it records."""
    pts = _point_set(pts)
    g = GramMatrix(kernel_matrix(spec, pts, pts))
    g.kernel, g.pts = spec, pts
    return g


def _same_rows(p: PointSet, q: PointSet) -> bool:
    """Whether two point sets are one: the same object or byte-equal rows."""
    return p is q or (
        p.points.shape == q.points.shape and p.points.tobytes() == q.points.tobytes()
    )


def _check_gram(g: GramMatrix, spec: KernelSpec, pts: PointSet) -> GramMatrix:
    """``g`` as a caller's ``gram_matrix=`` for ``pts`` under ``spec``: a
    ValueError naming it if it is not len(pts) x len(pts), or if :func:`gram`
    built it under another kernel or on other points.  A matrix from raw
    entries records neither kernel nor points, and only its size is checked."""
    if g.kernel is not None and g.kernel != spec:
        raise ValueError(
            f"gram_matrix is of kernel {g.kernel.to_json_dict()}, not {spec.to_json_dict()}"
        )
    if g.n != len(pts):
        raise ValueError(f"gram_matrix is of size {g.n}, not of the {len(pts)} points given")
    if g.pts is not None and not _same_rows(g.pts, pts):
        raise ValueError(f"gram_matrix is of other points than the {len(pts)} given")
    return g
