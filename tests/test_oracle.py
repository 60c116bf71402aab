"""thm1's low-rank rows against the extended-precision oracle (tests/oracle.py).

The route stops its factor L once the residual trace is at most eps * N lam,
and takes a row only if trace(G) / (N lam) <= eps / u, with eps the module's
one accuracy constant and u = 2^-53 (``experiments._route``).  Two bounds
follow, and these tests assert them and nothing measured:

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
"""

import numpy as np
import pytest
from oracle import needs_long_double, thm1_row

import krstab.experiments as exp
from krstab.experiments import DataDistribution, NoiseProcess, run_thm1, sample_dataset
from krstab.kernels import KernelSpec, PointSet, kernel_diag
from krstab.linalg import low_rank_solve
from krstab.rkhs import RepresenterFunction, inner_product
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
