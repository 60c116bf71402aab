"""Empirical harnesses for the two convergence regimes.

Both harnesses sweep a grid, refit with a scheduled regularization
parameter, and record one CSV row per (grid point, trial):

* vanishing noise (``run_thm2``): points are fixed; labels are target values
  plus noise shrunk by t; the fitted function is compared in H-norm to the
  minimal-norm interpolant of the noiseless values, alongside the two bound
  terms (pure-shrinkage norm and noise-propagation bound) and the
  decomposition residual that certifies the error identity.
* growing sample (``run_thm1``): datasets of size n are drawn from a
  distribution; the fit is compared in H-norm to the known target that
  generated the labels.  The shrinkage/noise columns do not apply in this
  regime and are recorded as nan.

Rows are reproducible in isolation: the seed of row (grid_index, trial) is
``mix64(master_seed, grid_index * 2**32 + trial)``, so enlarging the grid or
adding trials never changes the seeds of existing rows.

The CSV schema is fixed:

    index_var,lambda,trial,seed,h_distance,shrinkage_term,noise_bound,beta,p_n

Reals are written in shortest round-trip form; integer-valued indexes, trial
numbers, and seeds are written as plain integers.  Rows that hit a numerical
diagnostic keep their slot with nan in the distance columns and carry the
diagnostic message on the in-memory row (and in the summary emitted by the
command line layer), never in the CSV body.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
from typing import NamedTuple

import numpy as np

from .kernels import PointSet, gram, kappa_upper_bound, sample_kappa
from .linalg import DiagnosticsError, regularized_solve
from .operators import decomposition_residual, noise_operator_bound, shrinkage_term
from .rkhs import RepresenterFunction, evaluate, h_distance, rkhs_norm
from .rng import SplitMix64, mix64
from .solver import DataSet, krr_fit, min_norm_interpolant
from .stability import (
    Schedule,
    StabilityParams,
    beta_stability,
    eps_for_target,
    stability_probability,
)

RNG_NAME = "splitmix64"
# (CSV column, ReportRow attribute), in the fixed column order.
CSV_COLUMNS = (
    ("index_var", "index_var"),
    ("lambda", "lam"),
    ("trial", "trial"),
    ("seed", "seed"),
    ("h_distance", "h_distance"),
    ("shrinkage_term", "shrinkage_term"),
    ("noise_bound", "noise_bound"),
    ("beta", "beta"),
    ("p_n", "p_n"),
)
CSV_HEADER = ",".join(column for column, _ in CSV_COLUMNS)

NOISE_KINDS = ("uniform", "rademacher", "truncated_gaussian")


@dataclasses.dataclass(frozen=True)
class NoiseProcess:
    """Bounded zero-mean noise on [-b_max, b_max].

    ``uniform`` is flat on the interval, ``rademacher`` puts mass 1/2 on each
    endpoint, ``truncated_gaussian`` rejects N(0, sd^2) draws outside the
    interval (sd required for that kind only).
    """

    kind: str
    b_max: float
    sd: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.b_max < 0:
            raise ValueError("b_max must be nonnegative")
        if self.kind == "truncated_gaussian":
            if self.sd is None or not self.sd > 0:
                raise ValueError("truncated_gaussian requires sd > 0")
        elif self.sd is not None:
            raise ValueError(f"{self.kind} noise takes no sd")

    def sample(self, n: int, seed: int) -> np.ndarray:
        """n draws, fully determined by seed."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        if self.b_max == 0.0:
            return np.zeros(n)
        stream = SplitMix64(seed)
        # Same bits as n scalar draws of stream.uniform(-b_max, b_max), or of
        # b_max * stream.sign().
        if self.kind == "uniform":
            lo, hi = -self.b_max, self.b_max
            return lo + (hi - lo) * stream.doubles(n)
        if self.kind == "rademacher":
            return self.b_max * np.where(stream.words(n) >> np.uint64(63), 1.0, -1.0)
        out = np.empty(n)
        for i in range(n):
            for _ in range(100_000):
                z = stream.normal(self.sd)
                if abs(z) <= self.b_max:
                    out[i] = z
                    break
            else:
                raise DiagnosticsError(
                    "truncated gaussian rejection sampling failed; "
                    f"sd={self.sd} is far too large for b_max={self.b_max}"
                )
        return out

    def to_json_dict(self) -> dict:
        obj = {"kind": self.kind, "b_max": self.b_max}
        if self.sd is not None:
            obj["sd"] = self.sd
        return obj

    @staticmethod
    def from_json_dict(obj: dict) -> "NoiseProcess":
        extra = set(obj) - {"kind", "b_max", "sd"}
        if extra:
            raise ValueError(f"noise spec has unknown keys {sorted(extra)}")
        if "kind" not in obj or "b_max" not in obj:
            raise ValueError("noise spec requires kind and b_max")
        return NoiseProcess(kind=obj["kind"], b_max=float(obj["b_max"]), sd=obj.get("sd"))


@dataclasses.dataclass(frozen=True, eq=False)
class DataDistribution:
    """Inputs uniform on an axis-aligned box, labels = target(x) + noise."""

    lo: np.ndarray
    hi: np.ndarray
    target: RepresenterFunction
    noise: NoiseProcess

    def __post_init__(self) -> None:
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float)).copy()
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float)).copy()
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lo and hi must be vectors of equal length")
        if not np.all(np.isfinite(lo)) or not np.all(np.isfinite(hi)):
            raise ValueError("box bounds must be finite")
        if not np.all(lo < hi):
            raise ValueError("box must satisfy lo < hi in every coordinate")
        if lo.shape[0] != self.target.anchors.dim:
            raise ValueError(
                f"box dimension {lo.shape[0]} does not match the target's "
                f"anchor dimension {self.target.anchors.dim}"
            )
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def sample_x(self, n: int, stream: SplitMix64) -> PointSet:
        """n input points, coordinates drawn point-major from the stream."""
        u = stream.doubles(n * self.dim).reshape(n, self.dim)
        return PointSet(self.lo + u * (self.hi - self.lo))


def sample_dataset(dist: DataDistribution, n: int, seed: int) -> DataSet:
    """Draw (x_i, target(x_i) + b_i); inputs and noise come from independent
    substreams of ``seed``, so the draw is reproducible from the seed alone."""
    if n < 1:
        raise ValueError("n must be positive")
    xs = dist.sample_x(n, SplitMix64(mix64(seed, 0)))
    b = dist.noise.sample(n, mix64(seed, 1))
    labels = evaluate(dist.target, xs) + b
    return DataSet(pts=xs, labels=labels)


@dataclasses.dataclass
class ReportRow:
    """One (grid point, trial) outcome; ``flag`` is empty unless the trial
    hit a numerical diagnostic, and ``decomp_residual`` only applies to the
    vanishing-noise harness."""

    index_var: float
    lam: float
    trial: int
    seed: int
    beta: float
    p_n: float
    h_distance: float = math.nan
    shrinkage_term: float = math.nan
    noise_bound: float = math.nan
    decomp_residual: float = math.nan
    flag: str = ""


def _fmt_cell(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


@dataclasses.dataclass
class ExperimentReport:
    """All rows of one harness run plus the run's configuration echo."""

    rows: list[ReportRow]
    metadata: dict

    def to_csv_text(self) -> str:
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(",".join(_fmt_cell(getattr(r, attr)) for _, attr in CSV_COLUMNS))
        return "\n".join(lines) + "\n"

    def medians(self) -> dict:
        """Median h-distance per grid index over clean, finite rows;
        insertion order follows the grid."""
        groups: dict = {}
        for r in self.rows:
            if r.flag or not math.isfinite(r.h_distance):
                continue
            groups.setdefault(r.index_var, []).append(r.h_distance)
        return {idx: statistics.median(vals) for idx, vals in groups.items()}

    def flagged(self) -> list[ReportRow]:
        return [r for r in self.rows if r.flag]


def default_m_bound(target: RepresenterFunction, kappa: float, b_max: float) -> float:
    """Label-scale bound sup|target| + b_max <= ||target||_H * kappa + b_max."""
    return rkhs_norm(target) * kappa + b_max


def default_c_bound(m_bound: float) -> float:
    """Squared-loss admissibility constant 2 * x_max with x_max = 2 * M
    (|f - y| <= sup|f| + |y|_max <= 2M at the label scale M)."""
    return 4.0 * m_bound


def _stability_columns(
    n: int, lam: float, eta: float, m_bound: float, c_bound: float, kappa: float
) -> tuple[float, float]:
    params = StabilityParams(
        c=c_bound, kappa=kappa, m=m_bound, n=n, lam=lam, eps=eps_for_target(eta, lam)
    )
    beta = beta_stability(params)
    return beta, stability_probability(params, beta)


def run_thm2(
    pts: PointSet,
    f_tilde: RepresenterFunction,
    noise: NoiseProcess,
    schedule: Schedule,
    t_grid,
    trials: int,
    seed: int,
    eta: float = 0.1,
    m_bound: float | None = None,
    c_bound: float | None = None,
) -> ExperimentReport:
    """Vanishing-noise sweep on a fixed point set.

    For each t in the grid and each trial, labels are
    ``f_tilde(x_i) + b_i / t`` with b drawn afresh, the ridge fit uses
    ``lam = schedule.value(t)``, and the row records the H-distance of the
    fit to the minimal-norm interpolant of the noiseless values together
    with the shrinkage and noise bound terms of the error identity.  The
    trials of one t share the operator (G + n*lam I)^{-1}, so they are fitted
    as one block; a diagnostic raised by the block flags every row of that t.
    Their H-distances to the interpolant are one :func:`h_distance` call on
    the t's fits: one Gram quadratic form on the (n, trials) block of
    differences.
    """
    if not isinstance(pts, PointSet):
        pts = PointSet(pts)
    if f_tilde.anchors.dim != pts.dim:
        raise ValueError("target dimension does not match the point set")
    t_grid = [float(t) if not isinstance(t, int) else t for t in t_grid]
    if len(t_grid) < 1 or any(not t > 0 for t in t_grid):
        raise ValueError("t_grid must be nonempty with positive entries")
    if trials < 1:
        raise ValueError("trials must be positive")
    if not eta > 0:
        raise ValueError("eta must be positive")
    kernel = f_tilde.kernel
    n = len(pts)
    g = gram(kernel, pts)
    kappa = sample_kappa(kernel, pts)
    if m_bound is None:
        m_bound = default_m_bound(f_tilde, kappa, noise.b_max)
    if c_bound is None:
        c_bound = default_c_bound(m_bound)
    values = evaluate(f_tilde, pts)
    fbar = min_norm_interpolant(pts, values, kernel, gram_matrix=g)
    rows: list[ReportRow] = []
    for gi, t in enumerate(t_grid):
        lam = schedule.value(t)
        beta, p_n = _stability_columns(n, lam, eta, m_bound, c_bound, kappa)
        # (G + n*lam I)^{-1} beta depends on t only; the shrinkage term and
        # every row's residual share this one solve.
        shrink_solve = regularized_solve(g, n * lam, fbar.coeffs)
        shrink = shrinkage_term(g, shrink_solve, lam)
        t_rows = [
            ReportRow(
                index_var=t,
                lam=lam,
                trial=trial,
                seed=mix64(seed, gi * 2**32 + trial),
                beta=beta,
                p_n=p_n,
                shrinkage_term=shrink,
            )
            for trial in range(trials)
        ]
        # One noise vector per row, as rows of b; every trial of this t is
        # fitted through the one operator (G + n*lam I)^{-1}, so the fits and
        # the residuals' noise side are one block solve each.
        b = np.array([noise.sample(n, row.seed) for row in t_rows])
        try:
            datasets = [DataSet(pts, values + b_row / t) for b_row in b]
            fits = krr_fit(datasets, lam, kernel, gram_matrix=g)
            alpha = np.column_stack([fit.f.coeffs for fit in fits])
            resid = decomposition_residual(g, alpha, fbar.coeffs, shrink_solve, b.T, t, lam)
        except DiagnosticsError as exc:
            for row in t_rows:
                row.flag = str(exc)
        else:
            dists = h_distance([fit.f for fit in fits], fbar, gram_matrix=g)
            for row, dist, b_row, r in zip(t_rows, dists.tolist(), b, resid):
                row.h_distance = dist
                row.noise_bound = noise_operator_bound(
                    n, t, lam, float(np.linalg.norm(b_row))
                )
                row.decomp_residual = float(r)
        rows.extend(t_rows)
    metadata = {
        "command": "thm2",
        "index_name": "t",
        "n": n,
        "kernel": kernel.to_json_dict(),
        "f_tilde": f_tilde.to_json_dict(),
        "noise": noise.to_json_dict(),
        "schedule": schedule.to_json_dict(),
        "schedule_valid": schedule.valid_for_vanishing_noise,
        "t_grid": list(t_grid),
        "trials": trials,
        "seed": seed,
        "eta": eta,
        "m_bound": m_bound,
        "c_bound": c_bound,
        "kappa": kappa,
        "rng": RNG_NAME,
    }
    return ExperimentReport(rows=rows, metadata=metadata)


def run_thm1(
    dist: DataDistribution,
    schedule: Schedule,
    n_grid,
    trials: int,
    seed: int,
    eta: float = 0.1,
    m_bound: float | None = None,
    c_bound: float | None = None,
) -> ExperimentReport:
    """Growing-sample sweep against a known target.

    For each n in the grid and each trial, a dataset of size n is drawn from
    ``dist``, fit with ``lam = schedule.value(n)``, and the row records the
    H-distance of the fit to the target.  The shrinkage/noise columns of the
    fixed-design decomposition do not exist here and are nan.
    """
    n_grid = [int(n) for n in n_grid]
    if len(n_grid) < 1 or any(n < 1 for n in n_grid):
        raise ValueError("n_grid must be nonempty with positive integer entries")
    if trials < 1:
        raise ValueError("trials must be positive")
    if not eta > 0:
        raise ValueError("eta must be positive")
    kernel = dist.target.kernel
    kappa = math.sqrt(kappa_upper_bound(kernel, dist.lo, dist.hi))
    if m_bound is None:
        m_bound = default_m_bound(dist.target, kappa, dist.noise.b_max)
    if c_bound is None:
        c_bound = default_c_bound(m_bound)
    rows: list[ReportRow] = []
    for gi, n in enumerate(n_grid):
        lam = schedule.value(n)
        beta, p_n = _stability_columns(n, lam, eta, m_bound, c_bound, kappa)
        for trial in range(trials):
            row_seed = mix64(seed, gi * 2**32 + trial)
            # A noise process that cannot be sampled fails the run, as in
            # run_thm2; only the fit and its distance are flagged per row.
            data = sample_dataset(dist, n, row_seed)
            row = ReportRow(
                index_var=n, lam=lam, trial=trial, seed=row_seed, beta=beta, p_n=p_n
            )
            try:
                fit = krr_fit(data, lam, kernel)
                row.h_distance = h_distance(fit.f, dist.target)
            except DiagnosticsError as exc:
                row.flag = str(exc)
            rows.append(row)
    metadata = {
        "command": "thm1",
        "index_name": "n",
        "kernel": kernel.to_json_dict(),
        "target": dist.target.to_json_dict(),
        "box": {"lo": dist.lo.tolist(), "hi": dist.hi.tolist()},
        "noise": dist.noise.to_json_dict(),
        "schedule": schedule.to_json_dict(),
        "schedule_valid": schedule.valid_for_growing_sample,
        "n_grid": list(n_grid),
        "trials": trials,
        "seed": seed,
        "eta": eta,
        "m_bound": m_bound,
        "c_bound": c_bound,
        "kappa": kappa,
        "rng": RNG_NAME,
    }
    return ExperimentReport(rows=rows, metadata=metadata)


def bias_estimate(
    f_e: RepresenterFunction,
    dist: DataDistribution,
    lam: float,
    n_mc: int,
    seed: int,
) -> float:
    """Monte Carlo estimate of the pure regularization bias at level lam.

    Fits noiseless target labels on ``n_mc`` points drawn from ``dist`` and
    returns the H-distance of the fit to ``f_e``; with f_e the distribution's
    target this isolates the shrinkage error, which vanishes as lam -> 0 and
    grows with lam.
    """
    if f_e.kernel != dist.target.kernel:
        raise ValueError("f_e kernel differs from the distribution target kernel")
    if n_mc < 1:
        raise ValueError("n_mc must be positive")
    xs = dist.sample_x(n_mc, SplitMix64(mix64(seed, 0)))
    labels = evaluate(dist.target, xs)
    fit = krr_fit(DataSet(xs, labels), lam, dist.target.kernel)
    return h_distance(fit.f, f_e)


class RateEstimate(NamedTuple):
    slope: float
    intercept: float
    r2: float


def estimate_rate(report: ExperimentReport) -> RateEstimate:
    """Least squares slope of log(median h-distance) against log(index).

    Needs at least 3 grid indexes with positive finite medians; otherwise the
    trend is not identifiable and a DiagnosticsError is raised.
    """
    meds = report.medians()
    xs = [float(idx) for idx, med in meds.items() if med > 0 and math.isfinite(med)]
    ys = [math.log(med) for idx, med in meds.items() if med > 0 and math.isfinite(med)]
    if len(set(xs)) < 3:
        raise DiagnosticsError(
            "rate estimation needs at least 3 grid points with positive medians, "
            f"got {len(set(xs))}"
        )
    lx = np.log(xs)
    ly = np.asarray(ys)
    mx, my = float(np.mean(lx)), float(np.mean(ly))
    var = float(np.sum((lx - mx) ** 2))
    slope = float(np.sum((lx - mx) * (ly - my)) / var)
    intercept = my - slope * mx
    fitted = intercept + slope * lx
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - my) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res <= 1e-30 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return RateEstimate(slope=slope, intercept=intercept, r2=r2)
