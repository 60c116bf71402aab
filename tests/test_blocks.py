"""Block right-hand sides: an (n, k) block through ``regularized_solve`` or
``gram_norm``, a dataset with an (n, k) label block through ``krr_fit`` or a
sequence of expansions through ``h_distance`` gives, column by column, what
k separate single calls give, on a design with distinct points and on one
with repeated points (singular G).  ``decomposition_residual`` takes blocks
only, so each of its columns is compared with the explicit numpy formula
instead.  The single calls, and a one-column ``decomposition_residual``
block, are pinned with ``==`` to their explicit formulas.  A block may carry
one shift (one lam, one t) per column; each column then matches its own
scalar call.  The thm2 harness fits its label draws as one such block."""

import math

import numpy as np
import pytest

from krstab.kernels import GramMatrix, KernelSpec, PointSet, gram
from krstab.linalg import regularized_solve
from krstab.operators import decomposition_residual
import krstab.experiments as experiments
import krstab.rkhs as rkhs
from krstab.experiments import NoiseProcess, run_thm2
from krstab.rkhs import RepresenterFunction, gram_norm, h_distance
from krstab.solver import DataSet, krr_fit, regularized_risk
from krstab.stability import Schedule

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
        # A label block gives a list of fits, one per column, in order.
        pts, g = design(repeated)
        y = block(7)
        fits = krr_fit(DataSet(pts, y), LAM, KERNEL, gram_matrix=g)
        assert isinstance(fits, list) and len(fits) == K
        for f in fits:
            assert isinstance(f, RepresenterFunction) and f.anchors is pts
        got = np.column_stack([f.coeffs for f in fits])
        want = [
            krr_fit(DataSet(pts, y[:, j]), LAM, KERNEL, gram_matrix=g).coeffs for j in range(K)
        ]
        assert_columns_close(got, want)
        # Without a supplied Gram matrix the block builds its own.
        own = krr_fit(DataSet(pts, y), LAM, KERNEL)
        assert_columns_close(np.column_stack([f.coeffs for f in own]), want)

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
        data = DataSet(pts, block(11)[:, 0])
        f = krr_fit(data, LAM, KERNEL, gram_matrix=g)
        # The dataset's own (contiguous) copy of the labels: a strided vector
        # can round differently in the matrix-vector product.
        assert np.array_equal(f.coeffs, regularized_solve(g, N * LAM, data.labels))


# One shift per column: two columns share a shift, as the trials of one t do.
SHIFTS = N * np.array([1e-3, 0.5, 2.0, 1e-3])


@designs
class TestPerColumnShifts:
    def test_regularized_solve(self, repeated):
        _, g = design(repeated)
        y = block(17)
        got = regularized_solve(g, SHIFTS, y)
        q, w = g.eigen.eigenvectors, g.eigen.eigenvalues
        assert np.array_equal(got, q @ ((q.T @ y) / (w[:, None] + SHIFTS)))
        for j in range(K):
            want = regularized_solve(g, SHIFTS[j], y[:, j])
            assert np.linalg.norm(got[:, j] - want) <= 1e-13 * np.linalg.norm(want)

    def test_scalar_shift_keeps_its_bits(self, repeated):
        _, g = design(repeated)
        y = block(18)
        q, w = g.eigen.eigenvectors, g.eigen.eigenvalues
        got = regularized_solve(g, N * LAM, y)
        assert np.array_equal(got, q @ ((q.T @ y) / (w + N * LAM)[:, None]))
        assert np.array_equal(got, regularized_solve(g, np.full(K, N * LAM), y))

    def test_krr_fit_takes_one_lam_per_dataset(self, repeated):
        # Each column of a label block is one label draw with its own lam.
        pts, g = design(repeated)
        y = block(19)
        lams = SHIFTS / N
        fits = krr_fit(DataSet(pts, y), lams, KERNEL, gram_matrix=g)
        got = np.column_stack([f.coeffs for f in fits])
        assert np.array_equal(got, regularized_solve(g, N * lams, y))
        want = [
            krr_fit(DataSet(pts, y[:, j]), lams[j], KERNEL, gram_matrix=g).coeffs
            for j in range(K)
        ]
        assert_columns_close(got, want)

    def test_decomposition_residual(self, repeated):
        # Each column, with its own t, lam and shrinkage solve, gives what a
        # one-column block with those scalars gives.
        _, g = design(repeated)
        alpha, noise, shrink = block(20), block(21), block(22)
        beta = block(23)[:, 0]
        ts, lams = np.array([1.0, 10.0, 100.0, 10.0]), SHIFTS / N
        got = decomposition_residual(g, alpha, beta, shrink, noise, ts, lams)
        assert got.shape == (K,)
        for j in range(K):
            cols = (alpha[:, j : j + 1], beta, shrink[:, j], noise[:, j : j + 1])
            want = decomposition_residual(g, *cols, ts[j], lams[j])[0]
            assert abs(got[j] - want) <= 1e-12 * want


class TestBadShifts:
    @pytest.mark.parametrize(
        "shift",
        [
            [1.0, 0.0, 1.0, 1.0],
            [1.0, -1.0, 1.0, 1.0],
            [1.0, np.nan, 1.0, 1.0],
            [1.0] * (K - 1),
            [1.0] * (K + 1),
            [[1.0] * K],
        ],
        ids=["zero", "negative", "nan", "short", "long", "2-d"],
    )
    def test_regularized_solve(self, shift):
        _, g = design(False)
        with pytest.raises(ValueError, match="shift"):
            regularized_solve(g, np.array(shift), block(24))

    def test_krr_fit_needs_one_lam_per_dataset(self):
        pts, g = design(False)
        data = DataSet(pts, block(25))
        for lams in ([LAM] * (K - 1), [LAM] * (K + 1), [LAM, LAM, 0.0, LAM]):
            with pytest.raises(ValueError, match="lam"):
                krr_fit(data, lams, KERNEL, gram_matrix=g)

    def test_decomposition_residual_needs_one_value_per_column(self):
        _, g = design(False)
        a, v = np.ones((N, K)), np.ones(N)
        for t, lam, shrink in (
            (np.ones(K - 1), LAM, v),
            (T, np.full(K + 1, LAM), v),
            (T, LAM, np.ones((N, K + 1))),
        ):
            with pytest.raises(ValueError, match="shape"):
                decomposition_residual(g, a, v, shrink, a, t, lam)
        with pytest.raises(ValueError, match="t > 0"):
            decomposition_residual(g, a, v, v, a, np.array([T, T, 0.0, T]), LAM)


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


class TestLabelBlock:
    def test_f_ordered_block_keeps_the_bits_of_its_c_copy(self):
        pts, g = design(False)
        y = np.asfortranarray(block(12))
        data = DataSet(pts, y)
        assert data.labels.flags.c_contiguous
        twin = DataSet(pts, np.ascontiguousarray(y))
        assert data.labels.tobytes() == twin.labels.tobytes()
        fits, twins = (krr_fit(d, LAM, KERNEL, gram_matrix=g) for d in (data, twin))
        for f, t in zip(fits, twins):
            assert f.coeffs.tobytes() == t.coeffs.tobytes()

    @pytest.mark.parametrize("shape", [(N, 0), (N - 1, K), (N + 1,), (N, K, 1)])
    def test_rejects_bad_shapes(self, shape):
        pts, _ = design(False)
        with pytest.raises(ValueError, match="shape"):
            DataSet(pts, np.ones(shape))

    def test_block_has_no_risk(self):
        pts, g = design(False)
        f = RepresenterFunction(KERNEL, pts, block(26)[:, 0])
        with pytest.raises(ValueError, match="one label vector"):
            regularized_risk(f, DataSet(pts, block(27)), LAM, gram_matrix=g)

    def test_krr_fit_takes_no_sequence_of_datasets(self):
        pts, g = design(False)
        with pytest.raises(AttributeError, match="labels"):
            krr_fit([DataSet(pts, col) for col in block(28).T], LAM, KERNEL, gram_matrix=g)

    def test_run_thm2_fits_one_dataset(self, monkeypatch):
        # Every label draw of a run, over all t and trials, is one column of
        # one DataSet, fitted by one krr_fit call.
        built, calls = [], []

        def dataset(*args):
            built.append(DataSet(*args))
            return built[-1]

        def fit(data, *args, **kwargs):
            calls.append(data)
            return krr_fit(data, *args, **kwargs)

        monkeypatch.setattr(experiments, "DataSet", dataset)
        monkeypatch.setattr(experiments, "krr_fit", fit)
        pts = PointSet(np.linspace(0.0, 2.0, 8).reshape(-1, 1))
        target = RepresenterFunction(KERNEL, PointSet([[0.5], [1.5]]), np.array([1.0, -0.5]))
        noise, schedule = NoiseProcess("uniform", 0.5), Schedule(lambda0=0.5, exponent=1.0)
        report = run_thm2(pts, target, noise, schedule, [1, 10, 100], trials=3, seed=17)
        assert len(built) == 1 and calls == built
        assert built[0].labels.shape == (8, len(report.rows)) == (8, 9)


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
