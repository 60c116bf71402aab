"""Empirical harnesses for the two convergence regimes.

Both harnesses run one sweep: it checks the shared inputs, fills in the
default M and C bounds, and makes one row per (grid point, trial) with its
seed, its scheduled regularization parameter and the stability columns.
Each harness then fits its rows and fills in the distance columns:

* vanishing noise (``run_thm2``): points are fixed; labels are target values
  plus noise shrunk by t; the fitted function is compared in H-norm to the
  minimal-norm interpolant of the noiseless values, alongside the two bound
  terms (pure-shrinkage norm and noise-propagation bound) and the
  decomposition residual that certifies the error identity.  Every row
  shares G's one eigendecomposition, so the run is one block per run, not
  one per t: each solve takes every (t, trial) row as a column with its own
  shift n * lam(t), and the rows' label draws are the columns of one
  :class:`~krstab.solver.DataSet`.
* growing sample (``run_thm1``): datasets of size n are drawn from a
  distribution; the fit is compared in H-norm to the known target that
  generated the labels.  The shrinkage/noise columns do not apply in this
  regime and are recorded as nan.

A thm1 row takes one of two routes.  The low-rank route factors the row's
Gram matrix G ~ L L^T by greedy pivoted Cholesky, stopped when the residual
trace is at most ``_TRACE_STOP`` * N * max diag (1e-13, 1000 times below the
PSD check's tolerance); its pivot columns come from one
:func:`~krstab.kernels.column_evaluator` built for the row, with the bits of
``kernel_matrix`` columns.  It solves for the fit by Woodbury through an
r x r system and takes the distance by the cross-term form
:func:`~krstab.rkhs.cross_term_distance` with G @ alpha as L (L^T alpha),
the target's values at the row's points as :func:`sample_dataset` returns
them with the labels, and ||target||^2 computed once per run; G is never
built and never eigendecomposed.  That moves ||f||^2 by
alpha . (G - L L^T) alpha, and G - L L^T is PSD with trace about the stop,
so by at most about 1e-13 * N * max diag * ||alpha||^2.  The dense route is
:func:`~krstab.solver.krr_fit` and :func:`~krstab.rkhs.h_distance` through
the eigendecomposition of G, whose PSD check flags the row (the summary
lists it under ``flagged_rows``), as does the solve's shift rule (see
:func:`~krstab.linalg.regularized_solve`); a G above the size limit
``kernels.MAX_ENTRIES`` flags it before it is allocated.  A row goes dense
when any of five limits fails, each a property of its input and each a
constant of this module:

* size floor ``_MIN_LOW_RANK_N`` = 128: smaller rows try no factor;
* rank cap ``_RANK_CAP`` = 0.25: the factor gives up at N/4 pivots, or
  at ``kernels.MAX_ENTRIES`` // N if that is fewer (from N = 23171 on), so
  the factor never holds more entries than a kernel matrix may.  On a
  full-rank design (a gaussian of width 0.5 on [0, 5]^4, 1 BLAS thread) a
  low-rank row of rank N/4 measured 1.3 and 1.0 times the dense row at
  N = 32 and 64, and 0.65 down to 0.10 times it from N = 128 to 2048 (one
  dataset per N, medians); a factor that gives up adds 0.4-1.2 of a dense
  row below N = 256 (under 2 ms) and at most 0.37 of it from N = 256 on.
  So below N = 128 a factor saves nothing when it succeeds and costs up to
  a dense row when it fails, which is what the size floor avoids;
* PSD bound c * u <= ``PSD_TOL`` = 1e-10, with c the entrywise rounding
  constant :func:`~krstab.kernels.rounding_constant` of the kernel in this
  dimension and u = 2^-53.  It proves, without a kernel value, that the
  dense route's PSD check at tau = 1e-10 * N * max diag would pass, so a
  low-rank row is one the dense route would not have flagged;
* condition limit ``_CONDITION_LIMIT`` = 1e4 on trace(G) / (N lam).  One
  plus that ratio bounds cond(L^T L + N lam I) and the cancellation in
  Woodbury's subtraction.  To first order the route's relative error is
  ``_TRACE_STOP`` * trace(G) / (N lam), 1e-9 at the limit: on the
  criterion-4 design at lam = 1e-4 (5 seeds) the two routes' distances
  measured up to 3.6e-9 apart relative at N = 512 and 4.0e-9 at N = 2048.
  On the shipped designs, whose low-rank rows have trace(G) / (N lam) <= 20,
  they measured at most 1.7e-13 apart relative (every row with N >= 128 of
  the N = 32..2048, 10-trial grid at master seeds 0, 777 and 1000);
* shift limit N lam > tau = ``PSD_TOL`` * N * max diag: a smaller shift
  goes dense, where the solve's shift rule flags the row whenever G's
  smallest eigenvalue does not lift the shifted matrix above tau.  The
  condition limit alone would let such a row through only when
  trace(G) <= 1e-6 * N * max diag, a mean diagonal below a millionth of the
  largest: never for the gaussian, whose diagonal is constant, and for the
  other kernels only from N = 1e6 points on, since trace(G) >= max diag.

On the criterion-4 design (a gaussian of width 0.8 on [0, 4], numerical rank
about 19 at every N) rows with N >= 128 take the low-rank route and rows
with N = 32 and 64 go dense by the size floor (their rank caps, 8 and 16,
are below 19 anyway); a high-rank design, such as a gaussian of width 0.5
on [0, 5]^4, stays dense.  ``run_thm2`` and the other commands take the
dense route only.

Rows are reproducible in isolation: the seed of row (grid_index, trial) is
``mix64(master_seed, grid_index * 2**32 + trial)``, so enlarging the grid or
adding trials never changes the seeds of existing rows.  As an oversized
kernel matrix is, a run too large to hold is refused before any row is built,
by a :class:`~krstab.linalg.DiagnosticsError` naming ``trials``, the grid
length and the limit: when its rows, at ``_ROW_BYTES`` each, would take more
than 8 * ``kernels.MAX_ENTRIES`` bytes (1 GiB, a largest kernel matrix), or,
in thm2, whose noise, label and solve blocks are rows x n dense matrices,
when rows * n exceeds ``kernels.MAX_ENTRIES``.

The CSV schema is fixed:

    index_var,lambda,trial,seed,h_distance,shrinkage_term,noise_bound,beta,p_n

Reals are written in shortest round-trip form; integer-valued indexes, trial
numbers, and seeds are written as plain integers.  A thm1 row whose fit hits
a numerical diagnostic keeps its slot with nan in the distance column and
carries the diagnostic message on the in-memory row (and in the summary
emitted by the command line layer), never in the CSV body.  In thm2 a
diagnostic fails the run.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import kernels
from .kernels import (
    PSD_TOL,
    KernelSpec,
    PointSet,
    column_evaluator,
    gram,
    kappa_upper_bound,
    kernel_diag,
    rounding_constant,
    sample_kappa,
)
from .linalg import (
    DiagnosticsError,
    Frozen,
    FrozenValue,
    low_rank_solve,
    pivoted_cholesky,
    regularized_solve,
)
from .operators import decomposition_residual, noise_operator_bound, shrinkage_term
from .rkhs import (
    RepresenterFunction,
    cross_term_distance,
    evaluate,
    h_distance,
    inner_product,
    rkhs_norm,
)
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

# The stop and the limits of a thm1 row's low-rank route, stated with the
# measurements behind them in the module docstring.
_TRACE_STOP = 1e-13
_MIN_LOW_RANK_N = 128
_RANK_CAP = 0.25
_CONDITION_LIMIT = 1e4
# Bytes a finished row takes with its CSV line: 560 (thm1) and 680 (thm2) at
# the peak of writing the report (tracemalloc over 1e5 rows, Python 3.11).
_ROW_BYTES = 700


class NoiseProcess(FrozenValue):
    """Bounded zero-mean noise on [-b_max, b_max].

    ``uniform`` is flat on the interval, ``rademacher`` puts mass 1/2 on each
    endpoint, ``truncated_gaussian`` rejects N(0, sd^2) draws outside the
    interval (sd required for that kind only).
    """

    def __init__(self, kind: str, b_max: float, sd: float | None = None) -> None:
        if kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {kind!r}")
        for name, value in (("b_max", b_max), ("sd", sd)):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if b_max < 0:
            raise ValueError("b_max must be nonnegative")
        if kind == "truncated_gaussian":
            if sd is None or not sd > 0:
                raise ValueError("truncated_gaussian requires sd > 0")
        elif sd is not None:
            raise ValueError(f"{kind} noise takes no sd")
        vars(self).update(kind=kind, b_max=b_max, sd=sd)

    def sample(self, n: int, seed: int) -> np.ndarray:
        """n draws, fully determined by seed."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        if self.b_max == 0.0:
            return np.zeros(n)
        stream = SplitMix64(seed)
        # Same bits as n scalar draws of lo + (hi - lo) * stream.next_double(),
        # or of b_max signed by the top bit of stream.next_u64().
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


class DataDistribution(Frozen):
    """Inputs uniform on an axis-aligned box, labels = target(x) + noise."""

    def __init__(
        self, lo: np.ndarray, hi: np.ndarray, target: RepresenterFunction, noise: NoiseProcess
    ) -> None:
        lo = np.atleast_1d(np.asarray(lo, dtype=float)).copy()
        hi = np.atleast_1d(np.asarray(hi, dtype=float)).copy()
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lo and hi must be vectors of equal length")
        if not np.all(np.isfinite(lo)) or not np.all(np.isfinite(hi)):
            raise ValueError("box bounds must be finite")
        if not np.all(lo < hi):
            raise ValueError("box must satisfy lo < hi in every coordinate")
        if lo.shape[0] != target.anchors.dim:
            raise ValueError(
                f"box dimension {lo.shape[0]} does not match the target's "
                f"anchor dimension {target.anchors.dim}"
            )
        lo.setflags(write=False)
        hi.setflags(write=False)
        vars(self).update(lo=lo, hi=hi, target=target, noise=noise)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def sample_x(self, n: int, stream: SplitMix64) -> PointSet:
        """n input points, coordinates drawn point-major from the stream.

        More than ``kernels.MAX_ENTRIES`` coordinates raise a
        :class:`~krstab.linalg.DiagnosticsError` before anything is drawn,
        as an oversized kernel matrix does."""
        if n * self.dim > kernels.MAX_ENTRIES:
            raise DiagnosticsError(
                f"a sample of {n} points in {self.dim} dimensions needs {8 * n * self.dim} "
                f"bytes, above the limit of {kernels.MAX_ENTRIES} coordinates"
            )
        u = stream.doubles(n * self.dim).reshape(n, self.dim)
        return PointSet(self.lo + u * (self.hi - self.lo))


def sample_dataset(dist: DataDistribution, n: int, seed: int) -> tuple[DataSet, np.ndarray]:
    """Draw (x_i, target(x_i) + b_i), and the target's values at the inputs,
    the labels without their noise.  Inputs and noise come from independent
    substreams of ``seed``, so the draw is reproducible from the seed alone."""
    if n < 1:
        raise ValueError("n must be positive")
    xs = dist.sample_x(n, SplitMix64(mix64(seed, 0)))
    b = dist.noise.sample(n, mix64(seed, 1))
    values = evaluate(dist.target, xs)
    return DataSet(pts=xs, labels=values + b), values


class ReportRow:
    """One (grid point, trial) outcome; ``flag`` is empty unless a thm1 row's
    fit hit a numerical diagnostic (a thm2 diagnostic fails the run), and
    ``decomp_residual`` only applies to the vanishing-noise harness.  The
    harnesses fill in the distance columns after construction."""

    def __init__(
        self,
        index_var: float,
        lam: float,
        trial: int,
        seed: int,
        beta: float,
        p_n: float,
        h_distance: float = math.nan,
        shrinkage_term: float = math.nan,
        noise_bound: float = math.nan,
        decomp_residual: float = math.nan,
        flag: str = "",
    ) -> None:
        self.index_var = index_var
        self.lam = lam
        self.trial = trial
        self.seed = seed
        self.beta = beta
        self.p_n = p_n
        self.h_distance = h_distance
        self.shrinkage_term = shrinkage_term
        self.noise_bound = noise_bound
        self.decomp_residual = decomp_residual
        self.flag = flag


def _fmt_cell(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


class ExperimentReport:
    """All rows of one harness run plus the run's configuration echo, which
    ``summary.json`` writes key for key."""

    def __init__(self, rows: list[ReportRow], metadata: dict) -> None:
        self.rows = rows
        self.metadata = metadata

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
        return {idx: _median(vals) for idx, vals in groups.items()}

    def flagged(self) -> list[ReportRow]:
        return [r for r in self.rows if r.flag]


def _median(vals: list[float]) -> float:
    """The middle value, or the mean (a + b) / 2 of the middle pair: the bits
    of ``statistics.median``, without importing it (it loads fractions and
    decimal) or numpy.ma (which ``np.median`` loads)."""
    vals = sorted(vals)
    mid = len(vals) // 2
    return vals[mid] if len(vals) % 2 else (vals[mid - 1] + vals[mid]) / 2


def default_m_bound(target: RepresenterFunction, kappa: float, b_max: float) -> float:
    """Label-scale bound sup|target| + b_max <= ||target||_H * kappa + b_max."""
    return rkhs_norm(target) * kappa + b_max


def default_c_bound(m_bound: float) -> float:
    """Squared-loss admissibility constant 2 * x_max with x_max = 2 * M
    (|f - y| <= sup|f| + |y|_max <= 2M at the label scale M)."""
    return 4.0 * m_bound


def _sweep(schedule, grid, trials, seed, eta, m_bound, c_bound, kappa, target, b_max, n=None):
    """The rows of a harness run, one list per grid point, and the run's echo.

    ``n`` is the fixed sample size of the vanishing-noise sweep; without it
    the sample grows and each index is its own sample size.  A row gets its
    index, lam = schedule.value(index), trial, seed, and beta and p_n on that
    sample size; the harness fills in the rest.  The echo is the report's
    metadata.  Rows above the module's limits are refused before any is built.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if not eta > 0:
        raise ValueError("eta must be positive")
    count, limit = trials * len(grid), kernels.MAX_ENTRIES
    made = f"trials {trials} over a grid of {len(grid)} entries make {count} rows"
    if n is not None and count * n > limit:
        raise DiagnosticsError(
            f"{made} of {n} labels, {count * n} entries, above the limit of {limit} entries"
        )
    if count * _ROW_BYTES > 8 * limit:
        raise DiagnosticsError(
            f"{made} of about {_ROW_BYTES} bytes, above the limit of {8 * limit} bytes"
        )
    if m_bound is None:
        m_bound = default_m_bound(target, kappa, b_max)
    if c_bound is None:
        c_bound = default_c_bound(m_bound)
    groups: list[list[ReportRow]] = []
    for gi, index in enumerate(grid):
        lam = schedule.value(index)
        size = index if n is None else n
        params = StabilityParams(
            c=c_bound, kappa=kappa, m=m_bound, n=size, lam=lam, eps=eps_for_target(eta, lam)
        )
        beta = beta_stability(params)
        p_n = stability_probability(params, beta)
        rows = [
            ReportRow(index, lam, trial, mix64(seed, gi * 2**32 + trial), beta, p_n)
            for trial in range(trials)
        ]
        groups.append(rows)
    growing = n is None
    valid = schedule.valid_for_growing_sample if growing else schedule.valid_for_vanishing_noise
    metadata = {
        "command": "thm1" if growing else "thm2",
        "index_name": "n" if growing else "t",
        "rng": RNG_NAME,
        "schedule": schedule.to_json_dict(),
        "schedule_valid": valid,
        "kappa": kappa,
        "eta": eta,
        "m_bound": m_bound,
        "c_bound": c_bound,
        "trials": trials,
        "seed": seed,
    }
    return groups, metadata


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
    with the shrinkage and noise bound terms of the error identity.  Every
    row's operator (G + n*lam I)^{-1} goes through the one cached
    eigendecomposition of G, so the run makes one block per run of each
    question, with one shift n*lam per column: the shrinkage solves (one
    column per t), the fits and the residuals' noise solves (one column per
    row each), and one :func:`h_distance` call, a Gram quadratic form on the
    (n, rows) block of differences to the interpolant.  A numerical
    diagnostic fails the run: every row shares G, whose eigendecomposition
    :func:`min_norm_interpolant` PSD-checks before the block, so no row is
    flagged.  The rows, their stability columns on the n fixed points and
    the metadata come from the sweep shared with :func:`run_thm1`.
    """
    if not isinstance(pts, PointSet):
        pts = PointSet(pts)
    if f_tilde.anchors.dim != pts.dim:
        raise ValueError("target dimension does not match the point set")
    t_grid = [float(t) if not isinstance(t, int) else t for t in t_grid]
    if len(t_grid) < 1 or any(not t > 0 for t in t_grid):
        raise ValueError("t_grid must be nonempty with positive entries")
    kernel = f_tilde.kernel
    n = len(pts)
    kappa = sample_kappa(kernel, pts)
    groups, metadata = _sweep(
        schedule, t_grid, trials, seed, eta, m_bound, c_bound, kappa, f_tilde, noise.b_max, n
    )
    g = gram(kernel, pts)
    values = evaluate(f_tilde, pts)
    fbar = min_norm_interpolant(pts, values, kernel, gram_matrix=g)
    rows = [row for t_rows in groups for row in t_rows]
    # (G + n*lam I)^{-1} beta depends on t only: one column per t, solved as
    # one block with one shift per column.  The shrinkage terms and every
    # row's residual share these solves.
    t_lams = np.array([t_rows[0].lam for t_rows in groups])
    shrink_solves = regularized_solve(g, n * t_lams, np.tile(fbar.coeffs[:, None], len(t_lams)))
    for t_rows, shrink in zip(groups, shrinkage_term(g, shrink_solves, t_lams).tolist()):
        for row in t_rows:
            row.shrinkage_term = shrink
    # One noise vector per row, as rows of b.  Every row of the run, over all
    # t, is fitted in one block solve with its own shift, so the fits and the
    # residuals' noise side are one block solve each.
    b = np.array([noise.sample(n, row.seed) for row in rows])
    ts = np.array([row.index_var for row in rows], dtype=float)
    lams = np.array([row.lam for row in rows])
    # b / t overflows at a tiny t: a ValueError naming the t_grid entry.
    with np.errstate(over="ignore"):
        labels = values + b / ts[:, None]
    overflow = ~np.all(np.isfinite(labels), axis=1)
    if overflow.any():
        t = rows[int(overflow.argmax())].index_var
        raise ValueError(f"labels f_tilde(x) + b / t leave the float range at t_grid entry {t!r}")
    fits = krr_fit(DataSet(pts, labels.T), lams, kernel, gram_matrix=g)
    alpha = np.column_stack([f.coeffs for f in fits])
    resid = decomposition_residual(
        g, alpha, fbar.coeffs, np.repeat(shrink_solves, trials, axis=1), b.T, ts, lams
    )
    dists = h_distance(fits, fbar, gram_matrix=g)
    for row, dist, b_row, r in zip(rows, dists.tolist(), b, resid):
        row.h_distance = dist
        row.noise_bound = noise_operator_bound(
            n, row.index_var, row.lam, float(np.linalg.norm(b_row))
        )
        row.decomp_residual = float(r)
    return ExperimentReport(rows=rows, metadata=metadata)


def _low_rank_distance(
    data: DataSet, lam: float, kernel: KernelSpec, target_values: np.ndarray, target_sq: float
) -> float | None:
    """H-distance of the ridge fit of ``data`` to the target by the low-rank
    route, or None when one of its limits sends the row to the dense route.
    ``target_values`` are the target's values at the data's points and
    ``target_sq`` its squared H-norm."""
    pts = data.pts
    n = len(pts)
    if n < _MIN_LOW_RANK_N:
        return None
    diag = kernel_diag(kernel, pts)
    max_diag, shift = float(np.max(diag)), n * lam
    # 2.0**-53 is the unit roundoff u.
    if not (
        float(np.sum(diag)) <= _CONDITION_LIMIT * shift
        and shift > PSD_TOL * n * max_diag
        and rounding_constant(kernel, pts.dim) * 2.0**-53 <= PSD_TOL
    ):
        return None
    # A pivot column's overflow is the exact kernel value 0 (see
    # kernels._gaussian_matrix); one errstate covers every column of the factor.
    with np.errstate(over="ignore"):
        factor = pivoted_cholesky(
            diag,
            column_evaluator(kernel, pts),
            min(int(_RANK_CAP * n), kernels.MAX_ENTRIES // n),
            _TRACE_STOP * n * max_diag,
        )
    if factor is None:
        return None
    alpha = low_rank_solve(factor, shift, data.labels)
    return cross_term_distance(alpha, factor @ (factor.T @ alpha), target_values, target_sq)


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
    H-distance of the fit to the target, by the low-rank route where the
    row's input allows it and by the dense route otherwise (see the module
    docstring).  The shrinkage/noise columns of the
    fixed-design decomposition do not exist here and are nan.  The rows,
    their stability columns on n points and the metadata come from the sweep
    shared with :func:`run_thm2`.
    """
    n_grid = [int(n) for n in n_grid]
    if len(n_grid) < 1 or any(n < 1 for n in n_grid):
        raise ValueError("n_grid must be nonempty with positive integer entries")
    kernel = dist.target.kernel
    kappa = math.sqrt(kappa_upper_bound(kernel, dist.lo, dist.hi))
    groups, metadata = _sweep(
        schedule, n_grid, trials, seed, eta, m_bound, c_bound, kappa, dist.target, dist.noise.b_max
    )
    rows = [row for n_rows in groups for row in n_rows]
    target_sq = inner_product(dist.target, dist.target)
    for row in rows:
        # A noise process that cannot be sampled fails the run, as in
        # run_thm2; only the fit and its distance are flagged per row.
        data, values = sample_dataset(dist, row.index_var, row.seed)
        try:
            distance = _low_rank_distance(data, row.lam, kernel, values, target_sq)
            if distance is None:
                distance = h_distance(krr_fit(data, row.lam, kernel), dist.target)
            row.h_distance = distance
        except DiagnosticsError as exc:
            row.flag = str(exc)
    return ExperimentReport(rows=rows, metadata=metadata)


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
