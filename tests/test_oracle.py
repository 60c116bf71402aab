"""thm1's low-rank and dense rows and the docs thm2 run against the
extended-precision oracle (tests/oracle.py).

thm1's low-rank route stops its factor L once the residual trace is at most
eps * N lam, and takes a row only if trace(G) / (N lam) <= eps / u, with eps
the module's one accuracy constant and u = 2^-53 (``experiments._route``).
Two bounds follow, and these tests assert them and nothing measured:

* the fit.  E = G - L L^T is PSD with ||E|| <= trace(E) <= eps N lam, and
  alpha~ - alpha = (L L^T + N lam I)^-1 E alpha, so the truncation moves
  alpha by at most eps relative.  The Woodbury solve's rounding adds
  2u (1 + trace(G) / (N lam)) relative (``linalg.low_rank_solve``), at most
  2u + 2 eps inside the limit.  Together eta = eps + 2u (1 + trace(G) / (N lam));
* the distance.  Read the route as the exact fit and distance for G - D,
  with ||D|| <= eta N lam.  With Y = y . alpha, which bounds N lam ||alpha||^2
  and ||f||^2, the squared distance d^2 moves by at most
  eta (2 Y + 3 d sqrt(Y)) for eta <= 0.01, and summing the cross-term form
  in double adds gamma (|alpha| . |G alpha| + 2 |alpha| . |v| + ||target||^2),
  gamma = (N + 2) u / (1 - (N + 2) u), with v the target's values.

The second bound is a worst case, far above what the rows show; the first
is the sharp one.

The docs thm2 design (25 points, gaussian width 0.35) has a full-rank G:
its smallest double eigenvalue is far above ``pinv_solve``'s rank cut, so
beta = G^+ v = G^-1 v, which the oracle takes from its Cholesky factor.  Its
bounds are normwise, with the double eigenvalues w_1 >= ... >= w_n of G
widened by eps2 w_1 each:

* every double solve (the eigendecomposition G = Q W Q^T, its two products
  with Q, and the kernel values, labels and shifts it takes) is the exact
  solve of data within eps2 = n^2 u relative, normwise.  The symmetric QR
  algorithm is backward stable with an O(u) ||G|| backward error (Golub and
  Van Loan, sec. 8.3), each product with Q adds gamma_n, and a kernel value
  is within 3u of the long-double one with ||G|| >= 1;
* so a solve with kappa = cond(G + n lam I) = (w_1 + n lam) / (w_n + n lam)
  is within e(kappa) = 2 eps2 kappa / (1 - eps2 kappa) relative of the exact
  solution (Higham, Accuracy and Stability of Numerical Algorithms, thm 7.2):
  beta with kappa_0 = w_1 / w_n, and each fit alpha.  The shrinkage solve z
  of beta-hat adds ||beta-hat - beta|| / (w_n + n lam);
* a vector x-hat within delta of x (2-norm) has ||x-hat - x||_G <=
  sqrt(w_1) delta, and its computed quadratic form is within
  F = 3 eps2 ||x-hat||^2 of x-hat . G . x-hat (gamma_2n |x|.|G|.|x| with
  gaussian entries in [0, 1], plus the kernel values' 3 n u), so a computed
  H-norm is within sqrt(w_1) delta + min(sqrt(F), F / (||x||_G - sqrt(w_1)
  delta)) of the exact one, plus u for the square root;
* each subtraction and scaling by n lam adds u of its operands.

So the distance and the shrinkage term of one trial at each t are within
those bounds of the oracle's, and the decomposition residual, 0 in exact
arithmetic, is at most the bound on an H-norm whose vector is within
E_alpha + E_beta + E_noise + n lam E_z of 0.  The oracle's own gap is
within that bound at long double's u, with the backward error of its
Cholesky solves, n gamma_3n+1 <= 4 n^2 u (Higham, thm 10.4), for eps2.

thm1's dense rows (``krr_fit`` and ``h_distance`` through the
eigendecomposition of the row's G) take the same bounds, with eps2 = M^2 u,
M = N + m for the target's m anchors, and w the double eigenvalues of G:

* the fit alpha is one solve, within e(kappa) ||alpha|| of the oracle's,
  kappa = cond(G + N lam I);
* the distance is the H-norm of the expansion [alpha; -c] over the N + m
  points, which ``h_distance`` combines with the target's coefficients c.
  Its error from the fit's is ||alpha-hat - alpha||_G <= sqrt(w_1) e(kappa)
  ||alpha||, and its computed quadratic form on the M x M kernel matrix is
  within 3 eps2 ||x-hat||^2 of the exact one: gamma_2M |x|.|K|.|x| <=
  2 M^2 u ||x||^2 with gaussian entries in [0, 1], plus the kernel values'
  c M u ||x||^2, with c = ``rounding_constant`` < 6 in one dimension.

The rows checked are the docs thm1 design's N = 32 and 64 rows at the
shipped schedule, dense by the size floor, and rows that the condition limit
sends dense: lam = 1e-4 at N = 128, where trace(G) / (N lam) = 1e4 > eps / u.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from oracle import needs_long_double, thm1_row, thm2_design, thm2_row

import krstab.experiments as exp
from krstab.cli import _validate_config
from krstab.experiments import DataDistribution, NoiseProcess, run_thm1, sample_dataset
from krstab.kernels import KernelSpec, PointSet, gram, kernel_diag
from krstab.linalg import _RANK_TOL, low_rank_solve
from krstab.rkhs import RepresenterFunction, inner_product
from krstab.solver import krr_fit
from krstab.stability import Schedule

EPS = exp._ACCURACY
UNIT_ROUNDOFF = 2.0**-53
# The criterion-4 design: gaussian width 0.8 on [0, 4], numerical rank ~19.
CRIT4_TARGET = RepresenterFunction(
    kernel=KernelSpec.gaussian(0.8),
    anchors=PointSet([[0.5], [1.5], [2.5], [3.5]]),
    coeffs=np.array([0.8, 1.0, 1.0, 0.7]),
)
CRIT4 = DataDistribution([0.0], [4.0], CRIT4_TARGET, NoiseProcess("uniform", 0.5))
TARGET_SQ = inner_product(CRIT4_TARGET, CRIT4_TARGET)


def check_low_rank_rows(lam, n, trials, seed):
    """Runs thm1 at one ``lam`` and N = ``n``, checks every row against the
    oracle within the module docstring's bounds, and returns the rows' factors."""
    report = run_thm1(CRIT4, Schedule(lam, 0.0), [n], trials, seed)
    factors = []
    for row in report.rows:
        assert row.route == "low rank" and row.flag == ""
        data, values = sample_dataset(CRIT4, n, row.seed)
        shift = n * row.lam
        factor, _ = exp._route(CRIT4_TARGET.kernel, data.pts, shift)
        factors.append(factor)
        alpha = low_rank_solve(factor, shift, data.labels)
        exact_alpha, exact = thm1_row(data, row.lam, CRIT4_TARGET)

        trace = float(np.sum(kernel_diag(CRIT4_TARGET.kernel, data.pts)))
        eta = EPS + 2 * UNIT_ROUNDOFF * (1 + trace / shift)
        err = np.linalg.norm(alpha - exact_alpha)
        assert err <= eta * np.linalg.norm(exact_alpha), float(err / np.linalg.norm(exact_alpha))

        y_alpha = data.labels @ exact_alpha
        g_alpha = data.labels - shift * exact_alpha  # G alpha = y - N lam alpha
        terms = np.abs(exact_alpha) @ (np.abs(g_alpha) + 2 * np.abs(values))
        gamma = (n + 2) * UNIT_ROUNDOFF / (1 - (n + 2) * UNIT_ROUNDOFF)
        bound = eta * (2 * y_alpha + 3 * exact * np.sqrt(y_alpha)) + gamma * (terms + TARGET_SQ)
        assert abs(row.h_distance**2 - exact**2) <= bound
    return factors


@needs_long_double
@pytest.mark.parametrize("n", [128, 512])
def test_rows_just_inside_the_condition_limit(n):
    # lam = 1.2e-4 gives trace(G) / (N lam) = 8333, just inside
    # eps / u = 9007; lam = 1e-4 (1e4) goes dense.
    check_low_rank_rows(1.2e-4, n, 2, 1)


@needs_long_double
def test_a_shift_above_the_trace_takes_an_empty_factor():
    # eps N lam = 256 >= trace(G) = 128: the factor stops before its first
    # pivot, and the fit is y / (N lam) within eta.
    (factor,) = check_low_rank_rows(2e12, 128, 1, 3)
    assert factor.shape == (128, 0)


THM2_CONFIG = Path(__file__).resolve().parents[1] / "docs" / "configs" / "thm2.json"
LONG_DOUBLE_ROUNDOFF = float(np.finfo(np.longdouble).eps) / 2


class DenseBounds:
    """The module docstring's dense-route bounds on a design whose G has the
    double eigenvalues ``w``, for solves of backward error ``eps2`` and unit
    roundoff ``u``."""

    def __init__(self, w, eps2, u):
        widen = len(w) ** 2 * UNIT_ROUNDOFF * w[0]
        self.w_1, self.w_n, self.eps2, self.u = w[0] + widen, w[-1] - widen, eps2, u

    def solve(self, shift):
        """e(kappa) for G + shift I: a solve's relative 2-norm error."""
        kappa = (self.w_1 + shift) / (self.w_n + shift)
        assert self.eps2 * kappa < 0.5
        return 2 * self.eps2 * kappa / (1 - self.eps2 * kappa)

    def h_norm(self, exact, delta, size):
        """How far a computed H-norm can be from ``exact``, the H-norm of a
        vector x, for a vector within ``delta`` of x with 2-norm <= ``size``."""
        near = math.sqrt(self.w_1) * delta
        form = 3 * self.eps2 * size**2
        low = exact - near
        rounding = math.sqrt(form) if low <= 0 else min(math.sqrt(form), form / low)
        return near + rounding + self.u * (exact + near + rounding)

    def row_errors(self, n_lam, alpha, beta, shrink):
        """2-norm bounds on the errors of a row's fit, of beta and of its
        shrinkage solve, from the exact vectors."""
        e_beta = self.solve(0.0) * _norm(beta)
        e_alpha = self.solve(n_lam) * _norm(alpha)
        e_shrink = self.solve(n_lam) * _norm(shrink)
        e_shrink += (1 + self.solve(n_lam)) * e_beta / (self.w_n + n_lam)
        return e_alpha, e_beta, e_shrink


def _norm(x):
    return float(np.linalg.norm(np.asarray(x, dtype=float)))


THM1_CONFIG = THM2_CONFIG.with_name("thm1.json")


def check_dense_rows(report, dist, reason):
    """Checks every row of ``report``, sent dense by ``reason``, against the
    oracle within the module docstring's dense-route bounds."""
    target = dist.target
    for row in report.rows:
        assert row.route == reason and row.flag == ""
        n = row.index_var
        data, _ = sample_dataset(dist, n, row.seed)
        fit = krr_fit(data, row.lam, target.kernel).coeffs
        alpha, exact = thm1_row(data, row.lam, target)
        w = gram(target.kernel, data.pts).eigen.eigenvalues
        m = n + len(target.anchors)
        bounds = DenseBounds(w, m**2 * UNIT_ROUNDOFF, UNIT_ROUNDOFF)
        delta = bounds.solve(n * row.lam) * _norm(alpha)
        assert _norm(fit - alpha) <= delta, n
        size = math.hypot(_norm(alpha), _norm(target.coeffs)) + delta
        gap = abs(row.h_distance - float(exact))
        assert gap <= bounds.h_norm(float(exact), delta, size), n


@needs_long_double
def test_dense_rows_of_the_docs_design():
    args = _validate_config("thm1", json.loads(THM1_CONFIG.read_text(encoding="utf-8")))
    # A row's seed depends on its grid index and trial only, so the first two
    # grid entries give the docs run's N = 32 and 64 rows.
    assert args["n_grid"][:2] == [32, 64]
    args.update(n_grid=args["n_grid"][:2])
    check_dense_rows(run_thm1(**args), args["dist"], "size floor")


@needs_long_double
def test_dense_rows_beyond_the_condition_limit():
    # trace(G) / (N lam) = 128 / (128 * 1e-4) = 1e4 > eps / u = 9007.
    check_dense_rows(run_thm1(CRIT4, Schedule(1e-4, 0.0), [128], 2, 1), CRIT4, "condition limit")


@pytest.fixture(scope="module")
def thm2_docs_run():
    """The docs thm2 run's rows, interpolant and block of fits, as the
    harness computed them, with the oracle's design and rows for the first
    trial of each t."""
    args = _validate_config("thm2", json.loads(THM2_CONFIG.read_text(encoding="utf-8")))
    pts, target, trials = args["pts"], args["f_tilde"], args["trials"]
    caught = {}

    def spy(name, fn):
        def call(*a, **k):
            caught[name] = fn(*a, **k)
            return caught[name]

        return call

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exp, "krr_fit", spy("fits", exp.krr_fit))
        mp.setattr(exp, "min_norm_interpolant", spy("fbar", exp.min_norm_interpolant))
        report = exp.run_thm2(**args)
    w = gram(target.kernel, pts).eigen.eigenvalues
    # Full rank, from the double eigenvalues: pinv_solve keeps every one, so
    # G^+ = G^-1, and the widened w_n of the docstring's bounds is positive.
    bounds = DenseBounds(w, len(pts) ** 2 * UNIT_ROUNDOFF, UNIT_ROUNDOFF)
    assert w[-1] > _RANK_TOL * w[0] and bounds.w_n > 0
    g, values, beta = thm2_design(pts, target)
    rows = []
    for col in range(0, len(report.rows), trials):
        row = report.rows[col]
        b = args["noise"].sample(len(pts), row.seed)
        exact = thm2_row(g, values, beta, row.index_var, row.lam, b)
        rows.append((row, caught["fits"].coeffs[:, col], b, exact))
    return dict(w=w, bounds=bounds, beta=(caught["fbar"].coeffs, beta), rows=rows)


@needs_long_double
def test_thm2_interpolant_and_fits(thm2_docs_run):
    bounds = thm2_docs_run["bounds"]
    beta_hat, beta = thm2_docs_run["beta"]
    assert _norm(beta_hat - beta) <= bounds.solve(0.0) * _norm(beta)
    for row, fit, _, (alpha, *_) in thm2_docs_run["rows"]:
        n_lam = len(fit) * row.lam
        assert _norm(fit - alpha) <= bounds.solve(n_lam) * _norm(alpha), row.index_var


@needs_long_double
def test_thm2_distances_and_shrinkage_terms(thm2_docs_run):
    bounds, (_, beta) = thm2_docs_run["bounds"], thm2_docs_run["beta"]
    for row, fit, _, (alpha, shrink, term, dist, _) in thm2_docs_run["rows"]:
        n_lam = len(fit) * row.lam
        e_alpha, e_beta, e_shrink = bounds.row_errors(n_lam, alpha, beta, shrink)
        # alpha - beta, one subtraction.
        delta = e_alpha + e_beta + bounds.u * (_norm(alpha) + _norm(beta))
        size = _norm(alpha - beta) + delta
        gap = abs(row.h_distance - float(dist))
        assert gap <= bounds.h_norm(float(dist), delta, size), row.index_var
        # n lam z, two products.
        delta = n_lam * (e_shrink + 2 * bounds.u * _norm(shrink))
        size = n_lam * _norm(shrink) + delta
        gap = abs(row.shrinkage_term - float(term))
        assert gap <= bounds.h_norm(float(term), delta, size), row.index_var


def _residual_bound(bounds, n_lam, t, noise, alpha, beta, shrink):
    """The docstring's bound on the fit-error identity's gap, 0 in exact
    arithmetic: (G + n lam I)^-1 (b/t) has 2-norm <= ||b/t|| / (w_n + n lam)."""
    e_alpha, e_beta, e_shrink = bounds.row_errors(n_lam, alpha, beta, shrink)
    noise_solve = _norm(noise) / t / (bounds.w_n + n_lam)
    terms = _norm(alpha) + _norm(beta) + noise_solve + n_lam * _norm(shrink)
    # The noise solve's error, n lam z's two products and three subtractions.
    delta = e_alpha + e_beta + bounds.solve(n_lam) * noise_solve + n_lam * e_shrink
    delta += 5 * bounds.u * terms
    return bounds.h_norm(0.0, delta, delta)


@needs_long_double
def test_thm2_decomposition_residual(thm2_docs_run):
    w, bounds, (_, beta) = thm2_docs_run["w"], thm2_docs_run["bounds"], thm2_docs_run["beta"]
    own = DenseBounds(w, 4 * len(w) ** 2 * LONG_DOUBLE_ROUNDOFF, LONG_DOUBLE_ROUNDOFF)
    for row, fit, b, (alpha, shrink, _, _, gap) in thm2_docs_run["rows"]:
        n_lam, t = len(fit) * row.lam, row.index_var
        assert row.decomp_residual <= _residual_bound(bounds, n_lam, t, b, alpha, beta, shrink)
        assert float(gap) <= _residual_bound(own, n_lam, t, b, alpha, beta, shrink)
