"""The thm1 harness's low-rank route: the pivoted-Cholesky factor, the
Woodbury solve, the cross-term distance through the factor, and which rows
take it rather than the dense eigendecomposition."""

import math
import tracemalloc

import numpy as np
import pytest

import krstab.experiments as exp
import krstab.kernels
from krstab.experiments import DataDistribution, NoiseProcess, run_thm1
from krstab.kernels import PSD_TOL, KernelSpec, PointSet, kernel_diag, kernel_matrix
from krstab.linalg import low_rank_solve, pivoted_cholesky
from krstab.rkhs import (
    RepresenterFunction,
    cross_term_distance,
    evaluate,
    h_distance,
    inner_product,
)
from krstab.solver import krr_fit
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


@pytest.fixture
def pivot_columns(monkeypatch):
    """The size N of each pivot column the low-rank route evaluates."""
    columns = []
    real = exp.pivoted_cholesky

    def counted(diag, column, max_rank, tol):
        def counted_column(p):
            columns.append(diag.shape[0])
            return column(p)

        return real(diag, counted_column, max_rank, tol)

    monkeypatch.setattr(exp, "pivoted_cholesky", counted)
    return columns


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

    def test_storage_stops_at_the_rank_cap(self):
        # A factor that gives up at 40 pivots grows its 32-row buffer to 40
        # rows, not 64: its peak holds the old and the new buffer, 2 * 40
        # rows of n values, where doubling past the cap would hold 128.
        rng = np.random.default_rng(5)
        n, cap = 1000, 40
        spec = KernelSpec.gaussian(0.5)
        x = rng.uniform(0.0, 5.0, (n, 4))
        g = kernel_matrix(spec, x, x)
        tracemalloc.start()
        try:
            assert pivoted_cholesky(np.diag(g), lambda p: g[:, p], cap, 0.0) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * cap * n * 8

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


def test_cross_term_distance_matches_h_distance():
    rng = np.random.default_rng(9)
    spec = CRIT4_TARGET.kernel
    x = PointSet(rng.uniform(0.0, 4.0, (60, 1)))
    f = RepresenterFunction(spec, x, rng.normal(size=60))
    expect = h_distance(f, CRIT4_TARGET)
    values, target_sq = evaluate(CRIT4_TARGET, x), inner_product(CRIT4_TARGET, CRIT4_TARGET)
    product = kernel_matrix(spec, x, x) @ f.coeffs
    got = cross_term_distance(f.coeffs, product, values, target_sq)
    assert got == pytest.approx(expect, rel=1e-12)
    # The low-rank route's product L (L^T alpha), at the route tests' tolerance.
    factor = factor_of(spec, x.points)
    product = factor @ (factor.T @ f.coeffs)
    got = cross_term_distance(f.coeffs, product, values, target_sq)
    assert got == pytest.approx(expect, rel=1e-10)


@pytest.mark.parametrize(
    "target,hi",
    [
        (CRIT4_TARGET, 4.0),
        (CRIT4_TARGET, 16.0),
        (RepresenterFunction(KernelSpec.gaussian(0.8), [[0.2, 0.3], [0.7, 0.6]], [0.9, -0.5]), 1.0),
    ],
    ids=["rank-19", "rank-over-32", "d2-rank-over-50"],
)
def test_low_rank_row_makes_one_kernel_matrix_call(
    eigen_calls, pivot_columns, kernel_matrix_calls, target, hi
):
    # Each low-rank row reads its pivot columns from one column evaluator,
    # and its distance uses the target's values from the labels' sampling and
    # ||target||^2 from once per run: kernel_matrix runs once per row, for
    # the labels, however many pivots the row takes.  The run adds one call
    # for ||target||^2; m_bound and c_bound are given, so the default M takes
    # none.
    n, trials = 256, 3
    report = run_thm1(
        box_dist(target, 0.0, hi), Schedule(0.5, 0.3), [n], trials, 5, m_bound=2.0, c_bound=8.0
    )
    assert eigen_calls == [] and not report.flagged()
    assert len(pivot_columns) > trials
    anchors = len(target.anchors)
    assert sorted(kernel_matrix_calls) == [(anchors, anchors)] + [(n, anchors)] * trials


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

    def test_criterion_4_design_at_two_to_the_18(self, monkeypatch):
        # One row at N = 2^18.  Its dense Gram matrix would hold 2^36
        # entries, so the dense route can only flag the row at the memory
        # guard (2^27 entries); the low-rank route computes its distance
        # without an eigendecomposition.
        kwargs = dict(
            dist=box_dist(CRIT4_TARGET, 0.0, 4.0),
            schedule=Schedule(lambda0=0.5, exponent=0.3),
            n_grid=[2**18],
            trials=1,
            seed=777,
        )
        (dense,) = dense_report(monkeypatch, **kwargs).rows
        assert "kernel matrix needs" in dense.flag

        def no_eigh(g):
            raise AssertionError(f"eigendecomposition of a {g.n} x {g.n} Gram matrix")

        monkeypatch.setattr(krstab.kernels, "sym_eigen", no_eigh)
        (row,) = run_thm1(**kwargs).rows
        assert row.flag == ""
        assert np.isfinite(row.h_distance) and row.h_distance > 0

    def test_rank_cap_sends_rows_above_n_over_4_dense(
        self, monkeypatch, eigen_calls, pivot_columns
    ):
        # On [0, 16] the criterion-4 kernel has numerical rank ~51-55: above
        # the cap of 32 pivots at N = 128, below the cap of 64 at N = 256.
        # Every other limit passes, so each N = 128 row gives up after exactly
        # 32 pivot columns and goes dense, and the N = 256 rows stay low-rank.
        kwargs = dict(
            dist=box_dist(CRIT4_TARGET, 0.0, 16.0),
            schedule=Schedule(lambda0=0.5, exponent=0.3),
            n_grid=[128, 256],
            trials=2,
            seed=1,
        )
        report = run_thm1(**kwargs)
        assert eigen_calls == [128, 128]
        assert pivot_columns.count(128) == 2 * 32
        assert 2 * 32 < pivot_columns.count(256) <= 2 * 64
        dense = dense_report(monkeypatch, **kwargs)
        np.testing.assert_array_equal(distances(report)[:2], distances(dense)[:2])
        np.testing.assert_allclose(distances(report)[2:], distances(dense)[2:], rtol=1e-10)

    def test_rank_cap_keeps_the_factor_within_the_memory_guard(self, monkeypatch, pivot_columns):
        # With the guard at 20 N entries the cap is 20 pivots, below N/4 = 64:
        # each high-rank row's factor gives up after 20 pivot columns, and the
        # guard refuses its dense Gram matrix, so the row is flagged.
        n = 256
        monkeypatch.setattr(krstab.kernels, "MAX_ENTRIES", 20 * n)
        report = run_thm1(box_dist(HIGH_RANK_TARGET, 0.0, 5.0), Schedule(0.5, 0.3), [n], 2, 11)
        assert pivot_columns == [n] * (2 * 20)
        for row in report.rows:
            assert f"a {n} x {n} kernel matrix needs" in row.flag
            assert np.isnan(row.h_distance)

    def test_size_floor_factors_no_row_below_128(self, eigen_calls, pivot_columns):
        # An exact rank-3 design passes every other limit, so only the size
        # floor keeps the N = 32 and 127 rows from evaluating a pivot column.
        spec = KernelSpec.polynomial(2, 1.0)
        target = RepresenterFunction(spec, PointSet([[1.0]]), np.array([1.0]))
        dist = box_dist(target, 0.0, 4.0)
        report = run_thm1(dist, Schedule(0.5, 0.3), [32, 127, 128], 2, 8)
        assert eigen_calls == [32, 32, 127, 127]
        assert pivot_columns == [128] * 6
        for row in report.rows[:4]:
            data, _ = exp.sample_dataset(dist, row.index_var, row.seed)
            expect = h_distance(krr_fit(data, row.lam, spec), target)
            assert row.h_distance.hex() == expect.hex()

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

    def test_shift_limit_sends_rows_dense_where_they_are_flagged(
        self, monkeypatch, eigen_calls
    ):
        # With the condition limit lifted, N lam = 1.28e-28 is still far
        # below tau = 1e-10 * N * max diag, so each row goes dense, and the
        # solve's shift rule flags it there against G's smallest eigenvalue.
        monkeypatch.setattr(exp, "_CONDITION_LIMIT", 1e300)
        report = run_thm1(box_dist(CRIT4_TARGET, 0.0, 4.0), Schedule(1e-30, 0.0), [128], 2, 2)
        assert eigen_calls == [128, 128]
        for row in report.rows:
            assert "does not exceed the PSD tolerance" in row.flag
            assert math.isnan(row.h_distance)

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
            n_grid=[128, 256, 512],
            trials=3,
            seed=4,
        )
        report = run_thm1(**kwargs)
        assert eigen_calls == []
        np.testing.assert_allclose(
            distances(report), distances(dense_report(monkeypatch, **kwargs)), rtol=1e-10
        )

    def test_failed_certificate_takes_the_dense_route(self, monkeypatch, eigen_calls):
        # The row's PSD certificate is the a-priori rounding bound; a bound
        # above PSD_TOL sends the row to the dense route, bit for bit.
        unit_roundoff = 2.0**-53
        monkeypatch.setattr(exp, "rounding_constant", lambda *args: 2 * PSD_TOL / unit_roundoff)
        spec = KernelSpec.polynomial(2, 1.0)
        target = RepresenterFunction(spec, PointSet([[1.0]]), np.array([1.0]))
        kwargs = dict(
            dist=box_dist(target, 0.0, 4.0),
            schedule=Schedule(lambda0=0.5, exponent=0.3),
            n_grid=[128, 256],
            trials=2,
            seed=6,
        )
        report = run_thm1(**kwargs)
        assert eigen_calls == [128, 128, 256, 256]
        dense = dense_report(monkeypatch, **kwargs)
        np.testing.assert_array_equal(distances(report), distances(dense))
