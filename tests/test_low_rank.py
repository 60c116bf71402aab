"""The thm1 harness's low-rank route: the pivoted-Cholesky factor, the
Woodbury solve, the blocked certificate, the cross-term distance, and which
rows take it rather than the dense eigendecomposition."""

import numpy as np
import pytest

import krstab.experiments as exp
import krstab.kernels
from krstab.experiments import DataDistribution, NoiseProcess, run_thm1
from krstab.kernels import (
    PSD_TOL,
    KernelSpec,
    PointSet,
    kernel_diag,
    kernel_matrix,
    low_rank_certificate,
)
from krstab.linalg import low_rank_solve, pivoted_cholesky
from krstab.rkhs import RepresenterFunction, cross_term_distance, h_distance
from krstab.stability import Schedule

# The criterion-4 design: gaussian width 0.8 on [0, 4], numerical rank ~19.
CRIT4_TARGET = RepresenterFunction(
    kernel=KernelSpec.gaussian(0.8),
    anchors=PointSet([[0.5], [1.5], [2.5], [3.5]]),
    coeffs=np.array([0.8, 1.0, 1.0, 0.7]),
)
# The thm2_design benchmark's design: gaussian width 0.5 on [0, 5]^4, full rank.
HIGH_RANK_TARGET = RepresenterFunction(
    kernel=KernelSpec.gaussian(0.5),
    anchors=PointSet([[1.0, 1.5, 2.5, 3.5], [2.0, 4.0, 1.0, 2.5], [3.0, 2.5, 3.5, 1.5]]),
    coeffs=np.array([0.9, -1.1, 0.7]),
)


def box_dist(target, lo, hi, b_max=0.5):
    d = target.anchors.dim
    return DataDistribution(
        lo=np.full(d, lo), hi=np.full(d, hi), target=target, noise=NoiseProcess("uniform", b_max)
    )


def factor_of(spec, x, max_rank=None, tol_frac=1e-13):
    diag = kernel_diag(spec, x)
    n = x.shape[0]
    return pivoted_cholesky(
        diag,
        lambda p: kernel_matrix(spec, x, x[p : p + 1])[:, 0],
        n if max_rank is None else max_rank,
        tol_frac * n * float(np.max(diag)),
    )


@pytest.fixture
def eigen_calls(monkeypatch):
    """Counts the dense route's eigendecompositions."""
    calls = []
    real = krstab.kernels.sym_eigen

    def counted(g):
        calls.append(g.n)
        return real(g)

    monkeypatch.setattr(krstab.kernels, "sym_eigen", counted)
    return calls


def dense_report(monkeypatch, **kwargs):
    """The same run with every row sent to the dense route."""
    with monkeypatch.context() as m:
        m.setattr(exp, "_low_rank_distance", lambda *args: None)
        return run_thm1(**kwargs)


def distances(report):
    return np.array([row.h_distance for row in report.rows])


class TestPivotedCholesky:
    @pytest.mark.parametrize("d,width", [(1, 0.8), (2, 0.8)], ids=["rank-19", "rank-over-32"])
    def test_residual_trace_below_tolerance(self, d, width):
        # The d = 2 design needs more than 32 pivots, so the factor's
        # storage grows past its first allocation.
        rng = np.random.default_rng(3)
        spec = KernelSpec.gaussian(width)
        x = rng.uniform(0.0, 4.0, (300, d))
        factor = factor_of(spec, x)
        g = kernel_matrix(spec, x, x)
        resid = g - factor @ factor.T
        assert factor.shape[0] == 300 and factor.shape[1] < 300
        if d == 2:
            assert factor.shape[1] > 32
        rounding = 300 * factor.shape[1] * np.finfo(float).eps
        assert np.trace(resid) <= 1e-13 * 300 + rounding
        # The residual is a Schur complement: PSD up to rounding.
        assert np.linalg.eigvalsh(resid)[0] >= -rounding

    def test_exact_rank_of_a_polynomial_kernel(self):
        # (x y + 1)^2 on the line spans {1, x, x^2}: rank 3.
        rng = np.random.default_rng(4)
        spec = KernelSpec.polynomial(2, 1.0)
        x = rng.uniform(0.0, 4.0, (50, 1))
        factor = factor_of(spec, x)
        assert factor.shape == (50, 3)
        g = kernel_matrix(spec, x, x)
        assert np.max(np.abs(g - factor @ factor.T)) <= 1e-10 * np.max(g)

    def test_gives_up_at_the_rank_cap(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0.0, 5.0, (80, 4))
        assert factor_of(KernelSpec.gaussian(0.5), x, max_rank=20) is None
        assert factor_of(KernelSpec.gaussian(0.5), x, max_rank=0) is None

    def test_zero_matrix_has_an_empty_factor(self):
        factor = pivoted_cholesky(np.zeros(4), lambda p: np.zeros(4), 1, 0.0)
        assert factor.shape == (4, 0)
        y = np.arange(4.0)
        np.testing.assert_array_equal(low_rank_solve(factor, 2.0, y), y / 2)


class TestLowRankSolve:
    def test_matches_a_dense_solve(self):
        # The normwise error grows with 1 + trace / shift, the bound on the
        # Woodbury subtraction's cancellation.
        rng = np.random.default_rng(6)
        factor = rng.normal(size=(40, 7))
        y = rng.normal(size=40)
        trace = float(np.sum(factor**2))
        for shift in (1e-4, 1e-2, 1.0, 50.0):
            expect = np.linalg.solve(factor @ factor.T + shift * np.eye(40), y)
            err = np.linalg.norm(low_rank_solve(factor, shift, y) - expect)
            assert err <= np.finfo(float).eps * (1 + trace / shift) * np.linalg.norm(expect)

    def test_rejects_nonpositive_shift(self):
        with pytest.raises(ValueError, match="shift"):
            low_rank_solve(np.ones((3, 1)), 0.0, np.ones(3))


class TestCertificate:
    @pytest.mark.parametrize("block_bytes", [None, 3 * 8 * 90])
    def test_norm_and_product_in_row_blocks(self, monkeypatch, block_bytes):
        if block_bytes is not None:
            monkeypatch.setattr(krstab.kernels, "_BLOCK_BYTES", block_bytes)
        budget = krstab.kernels._BLOCK_BYTES
        real = krstab.kernels.kernel_matrix

        def bounded(spec, xs, ys):
            out = real(spec, xs, ys)
            assert out.nbytes <= budget
            return out

        rng = np.random.default_rng(7)
        spec = KernelSpec.gaussian(0.8)
        x = rng.uniform(0.0, 4.0, (90, 1))
        factor = factor_of(spec, x)[:, :-1]
        coeffs = rng.normal(size=90)
        monkeypatch.setattr(krstab.kernels, "kernel_matrix", bounded)
        cert, product = low_rank_certificate(spec, PointSet(x), factor, coeffs)
        g = real(spec, x, x)
        # Blocks round the difference differently; the certificate's rounding
        # term covers that.
        rounding = 90 * factor.shape[1] * np.finfo(float).eps
        assert abs(cert - rounding - np.linalg.norm(g - factor @ factor.T)) <= rounding
        # The certificate bounds indefiniteness, not accuracy: this factor's
        # dropped column is small, and it still certifies.
        assert cert <= PSD_TOL * 90
        np.testing.assert_allclose(product, g @ coeffs, rtol=1e-13, atol=1e-13)

    def test_rejects_a_factor_missing_its_last_column(self):
        rng = np.random.default_rng(8)
        spec = KernelSpec.polynomial(2, 1.0)
        x = rng.uniform(0.0, 4.0, (64, 1))
        factor = factor_of(spec, x)
        tau = PSD_TOL * 64 * float(np.max(kernel_diag(spec, x)))
        assert low_rank_certificate(spec, x, factor, np.zeros(64))[0] <= tau
        assert low_rank_certificate(spec, x, factor[:, :-1], np.zeros(64))[0] > tau


def test_cross_term_distance_matches_h_distance():
    rng = np.random.default_rng(9)
    spec = CRIT4_TARGET.kernel
    x = PointSet(rng.uniform(0.0, 4.0, (60, 1)))
    f = RepresenterFunction(spec, x, rng.normal(size=60))
    product = kernel_matrix(spec, x, x) @ f.coeffs
    got = cross_term_distance(f, product, CRIT4_TARGET)
    assert got == pytest.approx(h_distance(f, CRIT4_TARGET), rel=1e-12)


class TestRoutes:
    def test_criterion_4_design_agrees_without_eigh(self, monkeypatch, eigen_calls):
        kwargs = dict(
            dist=box_dist(CRIT4_TARGET, 0.0, 4.0),
            schedule=Schedule(lambda0=0.5, exponent=0.3),
            n_grid=[128, 256, 512, 1024],
            trials=2,
            seed=777,
        )
        report = run_thm1(**kwargs)
        assert eigen_calls == []
        dense = dense_report(monkeypatch, **kwargs)
        assert eigen_calls == [128, 128, 256, 256, 512, 512, 1024, 1024]
        np.testing.assert_allclose(distances(report), distances(dense), rtol=1e-10)
        assert not report.flagged()

    def test_rank_cap_keeps_small_rows_dense(self, eigen_calls):
        # Rank ~19 exceeds the caps 8 and 16 of N = 32 and 64.
        run_thm1(box_dist(CRIT4_TARGET, 0.0, 4.0), Schedule(0.5, 0.3), [32, 64, 128], 2, 1)
        assert eigen_calls == [32, 32, 64, 64]

    def test_high_rank_design_stays_dense(self, monkeypatch, eigen_calls):
        kwargs = dict(
            dist=box_dist(HIGH_RANK_TARGET, 0.0, 5.0),
            schedule=Schedule(lambda0=0.5, exponent=0.3),
            n_grid=[128, 256],
            trials=2,
            seed=11,
        )
        report = run_thm1(**kwargs)
        assert eigen_calls == [128, 128, 256, 256]
        dense = dense_report(monkeypatch, **kwargs)
        np.testing.assert_array_equal(distances(report), distances(dense))

    def test_condition_limit_sends_rows_dense(self, eigen_calls):
        # lam = 1e-6 puts trace(G) / (N lam) = 1e6 above the limit.
        run_thm1(box_dist(CRIT4_TARGET, 0.0, 4.0), Schedule(1e-6, 0.0), [128], 2, 2)
        assert eigen_calls == [128, 128]

    @pytest.mark.parametrize(
        "spec,anchors",
        [
            (KernelSpec.linear(), [[1.0, -0.5], [0.5, 2.0]]),
            (KernelSpec.polynomial(3, 1.0), [[0.5, 1.5], [3.0, 1.0]]),
        ],
        ids=["linear", "polynomial"],
    )
    def test_tiny_exact_rank_matches_dense(self, monkeypatch, eigen_calls, spec, anchors):
        target = RepresenterFunction(spec, PointSet(anchors), np.array([0.6, -0.4]))
        kwargs = dict(
            dist=box_dist(target, 0.0, 2.0),
            schedule=Schedule(lambda0=0.5, exponent=0.3),
            n_grid=[64, 128, 256],
            trials=3,
            seed=4,
        )
        report = run_thm1(**kwargs)
        assert eigen_calls == []
        np.testing.assert_allclose(
            distances(report), distances(dense_report(monkeypatch, **kwargs)), rtol=1e-10
        )

    def test_failed_certificate_takes_the_dense_route(self, monkeypatch, eigen_calls):
        # A factor missing its last column fails the certificate; the row is
        # then the dense route's, bit for bit.
        real = exp.pivoted_cholesky
        monkeypatch.setattr(exp, "pivoted_cholesky", lambda *args: real(*args)[:, :-1])
        spec = KernelSpec.polynomial(2, 1.0)
        target = RepresenterFunction(spec, PointSet([[1.0]]), np.array([1.0]))
        kwargs = dict(
            dist=box_dist(target, 0.0, 4.0),
            schedule=Schedule(lambda0=0.5, exponent=0.3),
            n_grid=[64, 128],
            trials=2,
            seed=6,
        )
        report = run_thm1(**kwargs)
        assert eigen_calls == [64, 64, 128, 128]
        dense = dense_report(monkeypatch, **kwargs)
        np.testing.assert_array_equal(distances(report), distances(dense))
