"""Block right-hand sides: an (n, k) block through ``regularized_solve`` or
``gram_norm``, a sequence of datasets through ``krr_fit`` or a sequence of
expansions through ``h_distance`` gives, column by column, what k separate
single calls give, on a design with distinct points and on one with repeated
points (singular G).  ``decomposition_residual`` takes blocks only, so each of
its columns is compared with the explicit numpy formula instead.  The single
calls, and a one-column ``decomposition_residual`` block, are pinned with
``==`` to their explicit formulas."""

import math

import numpy as np
import pytest

from krstab.kernels import GramMatrix, KernelSpec, PointSet, gram
from krstab.linalg import regularized_solve
from krstab.operators import decomposition_residual
import krstab.rkhs as rkhs
from krstab.rkhs import RepresenterFunction, gram_norm, h_distance
from krstab.solver import DataSet, FitResult, krr_fit

KERNEL = KernelSpec.gaussian(0.8)
N, K, LAM, T = 30, 4, 1e-3, 10.0


def design(repeated: bool):
    rows = np.random.default_rng(91).uniform(0.0, 3.0, (N, 2))
    if repeated:
        rows[N - 1], rows[N - 2] = rows[0], rows[3]
    pts = PointSet(rows)
    return pts, gram(KERNEL, pts)


def block(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(-1.0, 1.0, (N, K))


def assert_columns_close(got: np.ndarray, want: list) -> None:
    assert got.shape == (N, len(want))
    for j, col in enumerate(want):
        assert np.linalg.norm(got[:, j] - col) <= 1e-12 * np.linalg.norm(col)


designs = pytest.mark.parametrize("repeated", [False, True], ids=["distinct", "repeated"])


@designs
class TestBlockMatchesColumns:
    def test_regularized_solve(self, repeated):
        _, g = design(repeated)
        y = block(1)
        got = regularized_solve(g, N * LAM, y)
        assert_columns_close(got, [regularized_solve(g, N * LAM, y[:, j]) for j in range(K)])

    def test_gram_norm(self, repeated):
        _, g = design(repeated)
        c = block(2)
        got = gram_norm(g, c)
        assert got.shape == (K,)
        for j in range(K):
            want = gram_norm(g, c[:, j])
            assert abs(got[j] - want) <= 1e-12 * want

    def test_decomposition_residual(self, repeated):
        # An alpha that is not the fit makes each gap O(1), far above rounding.
        _, g = design(repeated)
        alpha, noise = block(3), block(4)
        beta, shrink = block(5)[:, 0], block(6)[:, 0]
        got = decomposition_residual(g, alpha, beta, shrink, noise, T, LAM)
        assert got.shape == (K,)
        q, w = g.eigen.eigenvectors, g.eigen.eigenvalues
        for j in range(K):
            right = -N * LAM * shrink + q @ ((q.T @ (noise[:, j] / T)) / (w + N * LAM))
            d = (alpha[:, j] - beta) - right
            want = math.sqrt(max(float(d @ g.entries @ d), 0.0))
            assert abs(got[j] - want) <= 1e-12 * want

    def test_krr_fit_sequence(self, repeated):
        pts, g = design(repeated)
        y = block(7)
        datasets = [DataSet(pts, y[:, j]) for j in range(K)]
        fits = krr_fit(datasets, LAM, KERNEL, gram_matrix=g)
        assert len(fits) == K
        for fit, data in zip(fits, datasets):
            assert isinstance(fit, FitResult)
            assert fit.data is data and fit.lam == LAM and fit.f.anchors is pts
        got = np.column_stack([fit.f.coeffs for fit in fits])
        want = [krr_fit(d, LAM, KERNEL, gram_matrix=g).f.coeffs for d in datasets]
        assert_columns_close(got, want)
        # Without a supplied Gram matrix the block builds its own.
        own = krr_fit(datasets, LAM, KERNEL)
        assert_columns_close(np.column_stack([fit.f.coeffs for fit in own]), want)

    def test_h_distance_sequence(self, repeated, monkeypatch):
        pts, g = design(repeated)
        c = block(13)
        fs = [RepresenterFunction(KERNEL, pts, c[:, j]) for j in range(K)]
        ref = RepresenterFunction(KERNEL, pts, block(14)[:, 0])
        want = [h_distance(f, ref, gram_matrix=g) for f in fs]
        shapes = []

        def recorded(gm, coeffs):
            shapes.append(np.shape(coeffs))
            return gram_norm(gm, coeffs)

        monkeypatch.setattr(rkhs, "gram_norm", recorded)
        got = h_distance(fs, ref, gram_matrix=g)
        assert shapes == [(N, K)]  # one quadratic form on the whole block
        assert isinstance(got, np.ndarray) and got.shape == (K,)
        for j in range(K):
            assert abs(got[j] - want[j]) <= 1e-12 * want[j]


@designs
class TestVectorsKeepTheirFormula:
    def test_regularized_solve(self, repeated):
        _, g = design(repeated)
        y = block(8)[:, 0]
        q, w = g.eigen.eigenvectors, g.eigen.eigenvalues
        assert np.array_equal(regularized_solve(g, N * LAM, y), q @ ((q.T @ y) / (w + N * LAM)))

    def test_gram_norm(self, repeated):
        _, g = design(repeated)
        c = block(9)[:, 0]
        assert gram_norm(g, c) == math.sqrt(max(float(c @ g.entries @ c), 0.0))

    def test_decomposition_residual(self, repeated):
        _, g = design(repeated)
        alpha, noise, beta, shrink = block(10).T
        alpha, noise = alpha[:, None], noise[:, None]
        got = decomposition_residual(g, alpha, beta, shrink, noise, T, LAM)
        right = -N * LAM * shrink[:, None] + regularized_solve(g, N * LAM, noise / T)
        assert got.tolist() == gram_norm(g, (alpha - beta[:, None]) - right).tolist()

    def test_krr_fit(self, repeated):
        pts, g = design(repeated)
        fit = krr_fit(DataSet(pts, block(11)[:, 0]), LAM, KERNEL, gram_matrix=g)
        # The dataset's own (contiguous) copy of the labels: a strided vector
        # can round differently in the matrix-vector product.
        y = fit.data.labels
        assert np.array_equal(fit.f.coeffs, regularized_solve(g, N * LAM, y))


bad_shapes = pytest.mark.parametrize("shape", [(N + 1,), (N + 1, K), (N, K, 1)])


class TestBadShapes:
    @bad_shapes
    def test_regularized_solve(self, shape):
        _, g = design(False)
        with pytest.raises(ValueError, match="shape"):
            regularized_solve(g, 1.0, np.ones(shape))

    @bad_shapes
    def test_gram_norm(self, shape):
        _, g = design(False)
        with pytest.raises(ValueError, match="shape"):
            gram_norm(g, np.ones(shape))

    @bad_shapes
    def test_decomposition_residual(self, shape):
        _, g = design(False)
        v = np.ones(N)
        with pytest.raises(ValueError, match="shape"):
            decomposition_residual(g, np.ones(shape), v, v, np.ones(shape), T, LAM)

    def test_decomposition_residual_takes_blocks_only(self):
        _, g = design(False)
        v = np.ones(N)
        with pytest.raises(ValueError, match="shape"):
            decomposition_residual(g, v, v, v, v, T, LAM)

    def test_decomposition_residual_needs_matching_blocks(self):
        _, g = design(False)
        v = np.ones(N)
        with pytest.raises(ValueError, match="shape"):
            decomposition_residual(g, np.ones((N, K)), v, v, np.ones((N, K + 1)), T, LAM)
        with pytest.raises(ValueError, match="shape"):
            decomposition_residual(g, np.ones((N, K)), v, v, v, T, LAM)


class TestKrrFitSequence:
    def test_rejects_datasets_on_different_point_sets(self):
        pts, g = design(False)
        y = block(12)
        twin = PointSet(pts.points.copy())  # equal rows, another object
        other = PointSet(pts.points + 1.0)
        for second in (twin, other):
            datasets = [DataSet(pts, y[:, 0]), DataSet(second, y[:, 1])]
            with pytest.raises(ValueError, match="one PointSet"):
                krr_fit(datasets, LAM, KERNEL, gram_matrix=g)

    def test_rejects_empty_sequence(self):
        with pytest.raises(ValueError, match="at least one"):
            krr_fit([], LAM, KERNEL)


class TestHDistanceSequence:
    def test_members_off_the_gram_point_set_take_the_single_path(self):
        # A sequence with a member off the Gram point set takes rkhs_norm for
        # every member; G is the kernel matrix rkhs_norm forms, so a member
        # on the point set gets the bits of its single Gram-route call.
        pts, g = design(False)
        other = PointSet(pts.points + 1.0)
        c = block(15)
        ref = RepresenterFunction(KERNEL, pts, c[:, 0])
        on = RepresenterFunction(KERNEL, pts, c[:, 1])
        off = RepresenterFunction(KERNEL, other, c[:, 2])
        for fs, gm in (([on, off], g), ([off, off], g), ([on, on], None)):
            got = h_distance(fs, ref, gram_matrix=gm)
            assert got.tolist() == [h_distance(f, ref, gram_matrix=gm) for f in fs]

    def test_rejects_empty_sequence(self):
        pts, g = design(False)
        ref = RepresenterFunction(KERNEL, pts, block(16)[:, 0])
        with pytest.raises(ValueError, match="at least one"):
            h_distance([], ref, gram_matrix=g)

    def test_negative_squares_warn_for_each_column(self):
        # The caller's Gram matrix is indefinite: two differences have square
        # -2 and warn, one has square 1.
        pts = PointSet(np.array([[0.0], [1.0]]))
        g = GramMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        ref = RepresenterFunction(KERNEL, pts, np.zeros(2))
        coeffs = ([1.0, -1.0], [1.0, 0.0], [-1.0, 1.0])
        fs = [RepresenterFunction(KERNEL, pts, np.array(c)) for c in coeffs]
        with pytest.warns(RuntimeWarning, match="significantly negative") as record:
            assert h_distance(fs, ref, gram_matrix=g).tolist() == [0.0, 1.0, 0.0]
        assert len(record) == 2


def test_block_norms_are_clamped_and_flagged():
    # An indefinite G gives a significantly negative square in one column
    # only; that column warns and reads 0, the other keeps its norm.
    g = GramMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    c = np.array([[1.0, 1.0], [-1.0, 0.0]])  # squares -2 and 1
    with pytest.warns(RuntimeWarning, match="significantly negative"):
        assert gram_norm(g, c).tolist() == [0.0, 1.0]
