"""Regularized least squares in the kernel space, and the minimal-norm
interpolant.

The regularized empirical risk of a function f over a dataset of size n is

    L(f) = (1/n) * sum_i (f(x_i) - y_i)^2 + lam * ||f||_H^2

with the 1/n weight applied to the data term only; ``lam`` is never rescaled.
Its unique minimizer is a kernel expansion over the data points whose
coefficients solve (G + n*lam*I) alpha = y.  With lam -> 0 the fit approaches
the minimal-norm interpolant, whose coefficients are the pseudoinverse
solution of G alpha = y.  :func:`krr_fit` and :func:`min_norm_interpolant`
return the function itself, a :class:`~krstab.rkhs.RepresenterFunction`;
its risk is :func:`regularized_risk` and its residuals
``evaluate(f, data.pts) - data.labels``.  The two solvers take the points'
Gram matrix G as ``gram_matrix=``, so that a caller who solves several
times on one point set builds G and its eigendecomposition once; a G that
:func:`~krstab.kernels.gram` built under another kernel or on other points
is refused by that name.  A :class:`DataSet`'s labels are a vector or an
(n, k) block of k label draws; :func:`krr_fit` fits either in one block
solve, each column with its own lam if the caller gives one per column, as
one expansion of the labels' shape.  Labels, lam and interpolation values
are read by :func:`~krstab.linalg._as_floats`, which refuses a bool, a
non-number, nan, inf and a wrong shape by name.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .kernels import GramMatrix, KernelSpec, PointSet, _check_gram, _point_set, gram
from .linalg import (
    DiagnosticsError,
    Frozen,
    FrozenValue,
    _as_floats,
    _as_real,
    pinv_solve,
    regularized_solve,
)
from .rkhs import RepresenterFunction, combine, evaluate, inner_product
from .rng import SplitMix64


class DataSet(Frozen):
    """Sample points with a label vector or an (n, k) block of k label draws,
    stored C-contiguous so that a block's bits never depend on its memory order."""

    def __init__(self, pts: PointSet, labels: np.ndarray) -> None:
        pts = _point_set(pts)
        y = np.array(_as_floats(labels, "labels", len(pts)), order="C")
        y.setflags(write=False)
        vars(self).update(pts=pts, labels=y)


def regularized_risk(f: RepresenterFunction, data: DataSet, lam: float) -> float:
    """L(f) exactly as displayed in the module docstring, for vectors: the
    values of f at the data's points by :func:`evaluate` and ||f||^2 by
    :func:`inner_product`."""
    if data.labels.ndim != 1 or f.coeffs.ndim != 1:
        shapes = data.labels.shape, f.coeffs.shape
        raise ValueError(f"the risk takes one label vector and coefficient vector, got {shapes}")
    _as_real(lam, "lam")
    data_term = float(np.mean((evaluate(f, data.pts) - data.labels) ** 2))
    return data_term + lam * inner_product(f, f)


def krr_fit(
    data: DataSet,
    lam: float | Sequence[float],
    kernel: KernelSpec,
    gram_matrix: GramMatrix | None = None,
) -> RepresenterFunction:
    """Minimize the regularized risk in closed form.

    ``lam`` is one positive value for every label column of ``data``, or a
    sequence of one per column.  A bool, a non-number, nan or inf in it is
    refused here by the name ``lam``; :func:`~krstab.linalg.regularized_solve`
    checks the rest, as the shifts n*lam_j of its one block solve of
    (G + n*lam_j I) a_j = y_j.  That gives one fitted expansion whose
    coefficients have the labels' shape: the fit of a label vector, or the
    (n, k) block of one fit per column.  ``gram_matrix`` may be supplied when
    the caller already holds the Gram matrix of the points (its cached
    decomposition is then reused); one that :func:`~krstab.kernels.gram`
    built under another kernel or on other points is a ValueError naming it.
    """
    y, pts = data.labels, data.pts
    g = gram(kernel, pts) if gram_matrix is None else _check_gram(gram_matrix, kernel, pts)
    alphas = regularized_solve(g, len(y) * _as_floats(lam, "lam"), y)
    return RepresenterFunction(kernel, pts, alphas)


def min_norm_interpolant(
    pts: PointSet, values, kernel: KernelSpec, gram_matrix: GramMatrix | None = None
) -> RepresenterFunction:
    """The interpolant of minimal H-norm through (pts, values).

    Raises InconsistentSystemError when no kernel expansion over ``pts``
    attains the values (rank-deficient Gram matrix with incompatible data).
    ``gram_matrix`` is checked as in :func:`krr_fit`.
    """
    pts = _point_set(pts)
    g = gram(kernel, pts) if gram_matrix is None else _check_gram(gram_matrix, kernel, pts)
    alpha = pinv_solve(g, values)
    return RepresenterFunction(kernel, pts, alpha)


class ClosenessCertificate(FrozenValue):
    """Record of the functional-gap checks behind a stability argument.

    Two functionals with respective minimizers f1, f2 are 'eps-close' when
    |L1(f1) - L2(f2)| <= eps; the certificate also checks the derived gap
    |L1(f1) - L1(f2)| <= 2*eps obtained by optimality of f1 under L1.
    """

    def __init__(
        self,
        eps: float,
        minimizers_gap: float,
        first_functional_gap: float,
        max_probe_gap: float,
        minimizers_gap_ok: bool,
        first_functional_gap_ok: bool,
        passed: bool,
    ) -> None:
        vars(self).update(
            eps=eps,
            minimizers_gap=minimizers_gap,
            first_functional_gap=first_functional_gap,
            max_probe_gap=max_probe_gap,
            minimizers_gap_ok=minimizers_gap_ok,
            first_functional_gap_ok=first_functional_gap_ok,
            passed=passed,
        )


def _eval_functional(functional, f: RepresenterFunction, name: str) -> float:
    try:
        value = float(functional(f))
    except Exception as exc:
        raise DiagnosticsError(f"functional {name} failed to evaluate on a probe") from exc
    if not np.isfinite(value):
        raise DiagnosticsError(f"functional {name} returned a non-finite value")
    return value


def closeness_certificate(
    functional_1,
    functional_2,
    f1: RepresenterFunction,
    f2: RepresenterFunction,
    eps: float,
    seed: int = 0,
) -> ClosenessCertificate:
    """Probe two functionals around their minimizers and certify the gaps.

    The probe set is {f1, f2, their midpoint} plus 8 random coefficient
    perturbations of each minimizer (drawn from the package generator, so the
    certificate is reproducible from ``seed``).  ``max_probe_gap`` is
    max |L1(h) - L2(h)| over the probes; the pass verdict needs both the
    minimizers gap (<= eps) and the first-functional gap (<= 2*eps).  The
    minimizers are single functions, with coefficient vectors.
    """
    eps = float(_as_real(eps, "eps"))  # so that the verdicts are Python bools
    for f in (f1, f2):
        if f.coeffs.ndim != 1:
            raise ValueError(f"minimizers must be vectors, got a block of shape {f.coeffs.shape}")
    stream = SplitMix64(seed)
    probes: list[RepresenterFunction] = [f1, f2, combine(f1, f2, 0.5, 0.5)]
    for base in (f1, f2):
        scale = 0.1 * (1.0 + float(np.max(np.abs(base.coeffs))))
        lo, hi = -scale, scale
        for _ in range(8):
            # Same bits as lo + (hi - lo) * stream.next_double() per coefficient.
            bump = lo + (hi - lo) * stream.doubles(len(base.coeffs))
            probes.append(RepresenterFunction(base.kernel, base.anchors, base.coeffs + bump))
    gaps = [
        abs(
            _eval_functional(functional_1, h, "L1")
            - _eval_functional(functional_2, h, "L2")
        )
        for h in probes
    ]
    l1_f1 = _eval_functional(functional_1, f1, "L1")
    l1_f2 = _eval_functional(functional_1, f2, "L1")
    l2_f2 = _eval_functional(functional_2, f2, "L2")
    minimizers_gap = abs(l1_f1 - l2_f2)
    first_gap = abs(l1_f1 - l1_f2)
    gap_ok = minimizers_gap <= eps
    first_ok = first_gap <= 2.0 * eps
    return ClosenessCertificate(
        eps=eps,
        minimizers_gap=minimizers_gap,
        first_functional_gap=first_gap,
        max_probe_gap=max(gaps),
        minimizers_gap_ok=gap_ok,
        first_functional_gap_ok=first_ok,
        passed=gap_ok and first_ok,
    )
