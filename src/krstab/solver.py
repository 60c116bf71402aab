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
``evaluate(f, data.pts) - data.labels``, or G @ f.coeffs - data.labels when
the caller holds the points' Gram matrix G.  All three functions take G as
``gram_matrix=``, so that a caller builds it once.  A :class:`DataSet`'s
labels are a vector or an (n, k) block of k label draws; :func:`krr_fit`
fits a block in one block solve, each column with its own lam if the
caller gives one per column, and a vector as a block of one.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .kernels import GramMatrix, KernelSpec, PointSet, gram
from .linalg import DiagnosticsError, Frozen, FrozenValue, pinv_solve, regularized_solve
from .rkhs import RepresenterFunction, combine, evaluate, inner_product
from .rng import SplitMix64


class DataSet(Frozen):
    """Sample points with a label vector or an (n, k) block of k label draws,
    stored C-contiguous so that a block's bits never depend on its memory order."""

    def __init__(self, pts: PointSet, labels: np.ndarray) -> None:
        if not isinstance(pts, PointSet):
            pts = PointSet(pts)
        y = np.array(labels, dtype=float, order="C")
        if y.ndim not in (1, 2) or y.shape[0] != len(pts) or y.size == 0:
            n = len(pts)
            raise ValueError(f"labels have shape {y.shape}, expected ({n},) or ({n}, k >= 1)")
        if not np.all(np.isfinite(y)):
            raise ValueError("labels must be finite")
        y.setflags(write=False)
        vars(self).update(pts=pts, labels=y)


def regularized_risk(
    f: RepresenterFunction, data: DataSet, lam: float, gram_matrix: GramMatrix | None = None
) -> float:
    """L(f) exactly as displayed in the module docstring, for a label vector.

    ``gram_matrix`` may be supplied when f's anchors are the data's points
    and it is their Gram matrix G: then f(x) = G alpha and ||f||^2 =
    alpha . G . alpha come from it, in the order of :func:`evaluate` and
    :func:`inner_product`, and no kernel matrix is built.
    """
    if data.labels.ndim != 1:
        raise ValueError(f"the risk takes one label vector, got shape {data.labels.shape}")
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    if gram_matrix is not None and f.anchors is data.pts and gram_matrix.n == len(data.pts):
        vals = gram_matrix.entries @ f.coeffs
        sq = float(f.coeffs @ gram_matrix.entries @ f.coeffs)
    else:
        vals, sq = evaluate(f, data.pts), inner_product(f, f)
    data_term = float(np.mean((vals - data.labels) ** 2))
    return data_term + lam * sq


def krr_fit(
    data: DataSet,
    lam: float | Sequence[float],
    kernel: KernelSpec,
    gram_matrix: GramMatrix | None = None,
) -> RepresenterFunction | list[RepresenterFunction]:
    """Minimize the regularized risk in closed form.

    ``lam`` is one positive value for every label column of ``data``, or a
    sequence of one per column.  There is one path: one block solve of
    (G + n*lam_j I) a_j = y_j, one shift per column, gives the fitted
    function of a label vector, or a list of one per column of a block.
    ``gram_matrix`` may be supplied when the caller already holds the Gram
    matrix of the points (its cached decomposition is then reused).
    """
    y = data.labels
    k = 1 if y.ndim == 1 else y.shape[1]
    lams = np.full(k, lam, dtype=float) if np.ndim(lam) == 0 else np.asarray(lam, dtype=float)
    if lams.shape != (k,):
        raise ValueError(f"got {lams.size} lam values for {k} label columns")
    if not np.all(lams > 0):
        raise ValueError(f"lam must be positive, got {lam}")
    g = gram_matrix if gram_matrix is not None else gram(kernel, data.pts)
    alphas = regularized_solve(g, len(y) * lams, y).reshape(len(y), k)
    fits = [RepresenterFunction(kernel, data.pts, alpha) for alpha in alphas.T]
    return fits[0] if y.ndim == 1 else fits


def min_norm_interpolant(
    pts: PointSet, values, kernel: KernelSpec, gram_matrix: GramMatrix | None = None
) -> RepresenterFunction:
    """The interpolant of minimal H-norm through (pts, values).

    Raises InconsistentSystemError when no kernel expansion over ``pts``
    attains the values (rank-deficient Gram matrix with incompatible data).
    """
    g = gram_matrix if gram_matrix is not None else gram(kernel, pts)
    alpha = pinv_solve(g, np.asarray(values, dtype=float))
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
    minimizers gap (<= eps) and the first-functional gap (<= 2*eps).
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
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
