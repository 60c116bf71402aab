"""Regularized least squares in the kernel space, and the minimal-norm
interpolant.

The regularized empirical risk of a function f over a dataset of size n is

    L(f) = (1/n) * sum_i (f(x_i) - y_i)^2 + lam * ||f||_H^2

with the 1/n weight applied to the data term only; ``lam`` is never rescaled.
Its unique minimizer is a kernel expansion over the data points whose
coefficients solve (G + n*lam*I) alpha = y.  With lam -> 0 the fit approaches
the minimal-norm interpolant, whose coefficients are the pseudoinverse
solution of G alpha = y.  :func:`krr_fit` has one path: datasets on one
point set are fitted as one block solve, and a single dataset is a block of
one.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from functools import cached_property

import numpy as np

from .kernels import GramMatrix, KernelSpec, PointSet, gram
from .linalg import DiagnosticsError, pinv_solve, regularized_solve
from .rkhs import RepresenterFunction, combine, evaluate, inner_product
from .rng import SplitMix64


@dataclasses.dataclass(frozen=True, eq=False)
class DataSet:
    """Sample points with one real label each."""

    pts: PointSet
    labels: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.pts, PointSet):
            object.__setattr__(self, "pts", PointSet(self.pts))
        y = np.asarray(self.labels, dtype=float).copy()
        if y.ndim != 1 or y.shape[0] != len(self.pts):
            raise ValueError(
                f"labels must be a vector of length {len(self.pts)}, got shape {y.shape}"
            )
        if not np.all(np.isfinite(y)):
            raise ValueError("labels must be finite")
        y.setflags(write=False)
        object.__setattr__(self, "labels", y)

    def __len__(self) -> int:
        return len(self.pts)


@dataclasses.dataclass(frozen=True, eq=False)
class FitResult:
    """Fitted function and the dataset it was fit to.

    ``residuals[i] = f(x_i) - y_i`` and ``objective`` is the attained
    regularized risk; each is computed on first read and cached.
    """

    f: RepresenterFunction
    lam: float
    data: DataSet

    @cached_property
    def residuals(self) -> np.ndarray:
        return evaluate(self.f, self.data.pts) - self.data.labels

    @cached_property
    def objective(self) -> float:
        return regularized_risk(self.f, self.data, self.lam)

    def to_json_dict(self) -> dict:
        return {**self.f.to_json_dict(), "lambda": self.lam, "objective": self.objective}


def regularized_risk(f: RepresenterFunction, data: DataSet, lam: float) -> float:
    """L(f) exactly as displayed in the module docstring."""
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    vals = evaluate(f, data.pts)
    data_term = float(np.mean((vals - data.labels) ** 2))
    return data_term + lam * inner_product(f, f)


def krr_fit(
    data: DataSet | Sequence[DataSet],
    lam: float,
    kernel: KernelSpec,
    gram_matrix: GramMatrix | None = None,
) -> FitResult | list[FitResult]:
    """Minimize the regularized risk in closed form.

    ``data`` is a sequence of DataSets on one PointSet object, or one
    DataSet, which is fitted as a sequence of one.  There is one path: one
    block solve of (G + n*lam I) A = [y_1 ... y_k] gives one FitResult per
    dataset, in order; a single DataSet gets its FitResult back alone.
    ``gram_matrix`` may be supplied when the caller already holds the Gram
    matrix of the points (its cached decomposition is then reused).
    """
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    single = isinstance(data, DataSet)
    datasets = [data] if single else list(data)
    if not datasets:
        raise ValueError("need at least one dataset")
    pts = datasets[0].pts
    if any(d.pts is not pts for d in datasets):
        raise ValueError("datasets of one block fit must share one PointSet")
    g = gram_matrix if gram_matrix is not None else gram(kernel, pts)
    labels = np.column_stack([d.labels for d in datasets])
    alphas = regularized_solve(g, len(pts) * lam, labels)
    fits = [
        FitResult(f=RepresenterFunction(kernel, pts, alpha), lam=lam, data=d)
        for alpha, d in zip(alphas.T, datasets)
    ]
    return fits[0] if single else fits


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


@dataclasses.dataclass(frozen=True)
class ClosenessCertificate:
    """Record of the functional-gap checks behind a stability argument.

    Two functionals with respective minimizers f1, f2 are 'eps-close' when
    |L1(f1) - L2(f2)| <= eps; the certificate also checks the derived gap
    |L1(f1) - L1(f2)| <= 2*eps obtained by optimality of f1 under L1.
    """

    eps: float
    minimizers_gap: float
    first_functional_gap: float
    max_probe_gap: float
    minimizers_gap_ok: bool
    first_functional_gap_ok: bool
    passed: bool


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
            # Same bits as one stream.uniform(lo, hi) per coefficient.
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
