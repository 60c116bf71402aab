"""Block right-hand sides: an (n, k) block through ``regularized_solve`` or
``gram_norm``, a dataset with an (n, k) label block through ``krr_fit``, or
an expansion with an (n, k) coefficient block through ``h_distance`` or
``combine`` gives, column by column, what k separate single calls give, on a
design with distinct points and on one with repeated points (singular G).
``decomposition_residual`` takes blocks only, with t, lam and the shrinkage
solve given per column, so each of its columns is compared with the explicit
numpy formula instead.  The single ``regularized_solve`` and ``krr_fit``
calls, and a one-column ``decomposition_residual`` block, are pinned with
``==`` to their explicit formulas; ``gram_norm`` has one path, so a vector
through it, and so through ``shrinkage_term`` and ``h_distance``'s Gram
path, is pinned with ``==`` to its one-column block, and ``rkhs_norm``
takes the same quadratic form on the kernel matrix it builds, so it is
pinned with ``==`` to ``gram_norm`` on a gaussian Gram matrix.  A block's
column and a one-column block are two matrix products of different widths,
which BLAS and numpy's sum may add in different orders, so they are
compared within 1e-12.  A block may carry one shift (one lam, one t) per column; each
column of ``regularized_solve`` and ``krr_fit`` then matches its own scalar
call, and each column of ``decomposition_residual`` its own one-column
block.  The thm2 harness fits its label draws as one such block, and its
fits stay one expansion from the solve to the distances.  The functions that
take one coefficient vector refuse a block."""

import math

import numpy as np
import pytest

from krstab.kernels import GramMatrix, KernelSpec, PointSet, gram
from krstab.linalg import regularized_solve
from krstab.operators import decomposition_residual, shrinkage_term
import krstab.experiments as experiments
import krstab.rkhs as rkhs
import krstab.solver as solver
from krstab.experiments import NoiseProcess, run_thm2
from krstab.rkhs import (
    RepresenterFunction,
    combine,
    gram_norm,
    h_distance,
    inner_product,
    rkhs_norm,
)
from krstab.solver import DataSet, closeness_certificate, krr_fit, regularized_risk
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
        alpha, noise, shrink = block(3), block(4), block(6)
        beta = block(5)[:, 0]
        got = decomposition_residual(g, alpha, beta, shrink, noise, np.full(K, T), np.full(K, LAM))
        assert got.shape == (K,)
        q, w = g.eigen.eigenvectors, g.eigen.eigenvalues
        for j in range(K):
            right = -N * LAM * shrink[:, j] + q @ ((q.T @ (noise[:, j] / T)) / (w + N * LAM))
            d = (alpha[:, j] - beta) - right
            want = math.sqrt(max(float(d @ g.entries @ d), 0.0))
            assert abs(got[j] - want) <= 1e-12 * want

    def test_krr_fit_sequence(self, repeated):
        # A label block gives one expansion whose coefficient block holds one
        # fit per column, in order.
        pts, g = design(repeated)
        y = block(7)
        fits = krr_fit(DataSet(pts, y), LAM, KERNEL, gram_matrix=g)
        assert isinstance(fits, RepresenterFunction) and fits.anchors is pts
        assert fits.coeffs.flags.c_contiguous
        want = [
            krr_fit(DataSet(pts, y[:, j]), LAM, KERNEL, gram_matrix=g).coeffs for j in range(K)
        ]
        assert_columns_close(fits.coeffs, want)
        # Without a supplied Gram matrix the block builds its own.
        assert_columns_close(krr_fit(DataSet(pts, y), LAM, KERNEL).coeffs, want)

    def test_h_distance_sequence(self, repeated, monkeypatch):
        pts, g = design(repeated)
        c = block(13)
        ref = RepresenterFunction(KERNEL, pts, block(14)[:, 0])
        want = [h_distance(RepresenterFunction(KERNEL, pts, col), ref, g) for col in c.T]
        shapes = []

        def recorded(gm, coeffs):
            shapes.append(np.shape(coeffs))
            return gram_norm(gm, coeffs)

        monkeypatch.setattr(rkhs, "gram_norm", recorded)
        got = h_distance(RepresenterFunction(KERNEL, pts, c), ref, gram_matrix=g)
        assert shapes == [(N, K)]  # one quadratic form on the whole block
        assert isinstance(got, np.ndarray) and got.shape == (K,)
        for j in range(K):
            assert abs(got[j] - want[j]) <= 1e-12 * want[j]

    def test_h_distance_sequence_without_a_gram_matrix(self, repeated):
        # Without the caller's G the block builds the kernel matrix of its
        # points, whose gaussian bits are G's: the Gram path's bits, and each
        # column's own distance.
        pts, g = design(repeated)
        c = block(16)
        ref = RepresenterFunction(KERNEL, pts, block(17)[:, 0])
        got = h_distance(RepresenterFunction(KERNEL, pts, c), ref)
        assert isinstance(got, np.ndarray) and got.shape == (K,)
        assert got.tobytes() == h_distance(RepresenterFunction(KERNEL, pts, c), ref, g).tobytes()
        for j in range(K):
            want = h_distance(RepresenterFunction(KERNEL, pts, c[:, j]), ref)
            assert abs(got[j] - want) <= 1e-12 * want

    def test_rkhs_norm(self, repeated):
        pts, g = design(repeated)
        c = block(18)
        got = rkhs_norm(RepresenterFunction(KERNEL, pts, c))
        assert got.tobytes() == gram_norm(g, c).tobytes()
        for j in range(K):
            want = rkhs_norm(RepresenterFunction(KERNEL, pts, c[:, j]))
            assert abs(got[j] - want) <= 1e-12 * want

    def test_combine(self, repeated):
        # A vector joins every column of a block, on the block's own points
        # (added) and on other points (concatenated), in either order: each
        # column has the bits of that column's own combine.
        pts, _ = design(repeated)
        c, v = block(30), block(31)[:, 0]
        blk = RepresenterFunction(KERNEL, pts, c)
        for other in (pts, PointSet(pts.points[:7] + 1.0)):
            vec = RepresenterFunction(KERNEL, other, v[: len(other)])
            for f, g, pick in ((blk, vec, 0), (vec, blk, 1)):
                got = combine(f, g, 0.5, -3.0)
                assert got.coeffs.shape == (len(got.anchors), K)
                for j in range(K):
                    col = RepresenterFunction(KERNEL, pts, c[:, j])
                    pair = (col, vec) if pick == 0 else (vec, col)
                    want = combine(*pair, 0.5, -3.0)
                    assert got.anchors.points.tobytes() == want.anchors.points.tobytes()
                    assert got.coeffs[:, j].tobytes() == want.coeffs.tobytes()


@designs
class TestVectorsKeepTheirFormula:
    def test_regularized_solve(self, repeated):
        _, g = design(repeated)
        y = block(8)[:, 0]
        q, w = g.eigen.eigenvectors, g.eigen.eigenvalues
        assert np.array_equal(regularized_solve(g, N * LAM, y), q @ ((q.T @ y) / (w + N * LAM)))

    def test_gram_norm(self, repeated):
        # A vector is a one-column block, with its bits, and gives a float.
        _, g = design(repeated)
        for c in block(9).T:
            got = gram_norm(g, c)
            assert type(got) is float and got == gram_norm(g, c[:, None])[0]

    def test_shrinkage_term(self, repeated):
        _, g = design(repeated)
        for s in block(12).T:
            assert shrinkage_term(g, s, LAM) == shrinkage_term(g, s[:, None], [LAM])[0]

    def test_h_distance_on_the_gram_path(self, repeated):
        pts, g = design(repeated)
        c = block(15)
        ref = RepresenterFunction(KERNEL, pts, c[:, 0])
        for j in range(1, K):
            f = RepresenterFunction(KERNEL, pts, c[:, j])
            col = RepresenterFunction(KERNEL, pts, c[:, j : j + 1])
            got = h_distance(f, ref, gram_matrix=g)
            assert type(got) is float and got == h_distance(col, ref, gram_matrix=g)[0]

    def test_rkhs_norm(self, repeated):
        # The quadratic form of gram_norm, on the points' kernel matrix.
        pts, g = design(repeated)
        for c in block(19).T:
            got = rkhs_norm(RepresenterFunction(KERNEL, pts, c))
            assert type(got) is float and got == gram_norm(g, c)

    def test_decomposition_residual(self, repeated):
        _, g = design(repeated)
        alpha, noise, beta, shrink = block(10).T
        alpha, noise, shrink = alpha[:, None], noise[:, None], shrink[:, None]
        got = decomposition_residual(g, alpha, beta, shrink, noise, np.array([T]), np.array([LAM]))
        right = regularized_solve(g, N * LAM, noise / T) - N * LAM * shrink
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
        got = krr_fit(DataSet(pts, y), lams, KERNEL, gram_matrix=g).coeffs
        assert np.array_equal(got, regularized_solve(g, N * lams, y))
        want = [
            krr_fit(DataSet(pts, y[:, j]), lams[j], KERNEL, gram_matrix=g).coeffs
            for j in range(K)
        ]
        assert_columns_close(got, want)

    def test_decomposition_residual(self, repeated):
        # Each column, with its own t, lam and shrinkage solve, gives what a
        # one-column block with those values gives.
        _, g = design(repeated)
        alpha, noise, shrink = block(20), block(21), block(22)
        beta = block(23)[:, 0]
        ts, lams = np.array([1.0, 10.0, 100.0, 10.0]), SHIFTS / N
        got = decomposition_residual(g, alpha, beta, shrink, noise, ts, lams)
        assert got.shape == (K,)
        for j in range(K):
            col = slice(j, j + 1)
            cols = (alpha[:, col], beta, shrink[:, col], noise[:, col], ts[col], lams[col])
            want = decomposition_residual(g, *cols)[0]
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
            with pytest.raises(ValueError, match="shift"):
                krr_fit(data, lams, KERNEL, gram_matrix=g)

    def test_decomposition_residual_needs_one_value_per_column(self):
        # A wrong count of t or a wrong shrinkage block is a shape error; a
        # wrong count of lam, or a lam <= 0, is the noise solve's shift error.
        _, g = design(False)
        a, v, ts, lams = np.ones((N, K)), np.ones(N), np.full(K, T), np.full(K, LAM)
        for t, lam, shrink, match in (
            (np.ones(K - 1), lams, a, "shape"),
            (ts, np.full(K + 1, LAM), a, f"got {K + 1} shifts for {K} right-hand sides"),
            (ts, lams, np.ones((N, K + 1)), "shape"),
            (np.array([T, T, 0.0, T]), lams, a, "t > 0"),
            (ts, np.array([LAM, LAM, 0.0, LAM]), a, "shift must be positive"),
        ):
            with pytest.raises(ValueError, match=match):
                decomposition_residual(g, a, v, shrink, a, t, lam)

    def test_krr_fit_leaves_lam_to_regularized_solve(self, monkeypatch):
        # krr_fit reads lam as numbers, refusing a nan by name before the
        # solve; a lam <= 0 or of the wrong shape reaches regularized_solve,
        # which rejects it as a shift.
        pts, _ = design(False)
        calls = []

        def recorded(name, fn):
            def call(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return call

        monkeypatch.setattr(solver, "gram", recorded("gram", gram))
        monkeypatch.setattr(solver, "regularized_solve", recorded("solve", regularized_solve))
        for lam in (0.0, -LAM, [[LAM] * K]):
            calls.clear()
            with pytest.raises(ValueError, match="shift must be positive"):
                krr_fit(DataSet(pts, block(29)), lam, KERNEL)
            assert "solve" in calls
        calls.clear()
        with pytest.raises(ValueError, match="^lam must be finite"):
            krr_fit(DataSet(pts, block(29)), np.nan, KERNEL)
        assert "solve" not in calls


bad_shapes = pytest.mark.parametrize("shape", [(N + 1,), (N + 1, K), (N, K, 1)])
# decomposition_residual's own block check, not a numpy broadcast or a
# right-hand-side error raised further in.
BLOCK_SHAPES = "alpha, shrink_solve and noise have shapes"


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

    @pytest.mark.parametrize("shape", [(N + 1,), (N + 1, K), (N - 1, K), (N, K, 1)])
    def test_representer_function(self, shape):
        pts, _ = design(False)
        with pytest.raises(ValueError, match="coeffs must be a vector"):
            RepresenterFunction(KERNEL, pts, np.ones(shape))

    def test_combine_needs_matching_widths(self):
        # Two blocks combine column by column, so their widths must agree,
        # whether their coefficients are added or concatenated.
        pts, _ = design(False)
        f = RepresenterFunction(KERNEL, pts, np.ones((N, K)))
        for anchors in (pts, PointSet(pts.points + 1.0)):
            g = RepresenterFunction(KERNEL, anchors, np.ones((N, K + 1)))
            with pytest.raises(ValueError, match="shape"):
                combine(f, g)

    # With K values of t and lam and an (N, K) shrinkage block, only alpha's
    # or noise's shape is wrong, and the block check itself must say so.
    @bad_shapes
    def test_decomposition_residual(self, shape):
        _, g = design(False)
        v, ts, lams, shrink = np.ones(N), np.full(K, T), np.full(K, LAM), np.ones((N, K))
        with pytest.raises(ValueError, match=BLOCK_SHAPES):
            decomposition_residual(g, np.ones(shape), v, shrink, np.ones(shape), ts, lams)

    def test_decomposition_residual_takes_blocks_only(self):
        _, g = design(False)
        v, ts, lams, shrink = np.ones(N), np.full(K, T), np.full(K, LAM), np.ones((N, K))
        with pytest.raises(ValueError, match=BLOCK_SHAPES):
            decomposition_residual(g, v, v, shrink, v, ts, lams)

    def test_decomposition_residual_needs_matching_blocks(self):
        _, g = design(False)
        v, ts, lams, a = np.ones(N), np.full(K, T), np.full(K, LAM), np.ones((N, K))
        for alpha, noise in ((a, np.ones((N, K + 1))), (a, v), (np.ones((N, K + 1)), a), (v, a)):
            with pytest.raises(ValueError, match=BLOCK_SHAPES):
                decomposition_residual(g, alpha, v, a, noise, ts, lams)

    def test_decomposition_residual_takes_per_column_values_only(self):
        # A scalar t, a scalar lam and a shrinkage vector shared by every
        # column are each refused: t and lam hold k values, shrink_solve is
        # an (n, k) block.
        _, g = design(False)
        a, v, ts, lams = np.ones((N, K)), np.ones(N), np.full(K, T), np.full(K, LAM)
        for t, lam, shrink in ((T, lams, a), (ts, LAM, a), (ts, lams, v)):
            with pytest.raises(ValueError, match="shape"):
                decomposition_residual(g, a, v, shrink, a, t, lam)

    # beta is one (n,) vector shared by every column; a vector of another
    # length or a block is refused by name before any solve.
    @pytest.mark.parametrize("shape", [(1,), (K,), (N, 1)])
    def test_decomposition_residual_checks_beta(self, shape):
        _, g = design(False)
        a, ts, lams = np.ones((N, K)), np.full(K, T), np.full(K, LAM)
        with pytest.raises(ValueError, match=r"beta has shape"):
            decomposition_residual(g, a, np.ones(shape), a, a, ts, lams)

    # beta is read as an array, as the other five arguments are: a list
    # gives its array's residuals bit for bit.
    def test_decomposition_residual_reads_a_beta_list(self):
        _, g = design(False)
        alpha, noise, shrink, beta = block(3), block(4), block(6), block(5)[:, 0]
        ts, lams = np.full(K, T), np.full(K, LAM)
        want = decomposition_residual(g, alpha, beta, shrink, noise, ts, lams)
        got = decomposition_residual(g, alpha, beta.tolist(), shrink, noise, ts, lams)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "shrink, lam",
        [((N, K), (K - 1,)), ((N, K), (K, 1)), ((N,), (K,))],
        ids=["too-few", "2-d", "vector"],
    )
    def test_shrinkage_term_takes_one_lam_or_one_per_column(self, shrink, lam):
        _, g = design(False)
        with pytest.raises(ValueError, match="lam has shape"):
            shrinkage_term(g, np.ones(shrink), np.full(lam, LAM))

    # A block without columns is refused by name, as DataSet refuses an
    # empty label block, with one shift per column or one for all.
    @pytest.mark.parametrize("shift", [[], 1.0], ids=["per-column", "scalar"])
    def test_regularized_solve_needs_a_column(self, shift):
        _, g = design(False)
        with pytest.raises(ValueError, match="rhs must be a vector"):
            regularized_solve(g, shift, np.ones((N, 0)))


class TestLabelBlock:
    def test_f_ordered_block_keeps_the_bits_of_its_c_copy(self):
        pts, g = design(False)
        y = np.asfortranarray(block(12))
        data = DataSet(pts, y)
        assert data.labels.flags.c_contiguous
        twin = DataSet(pts, np.ascontiguousarray(y))
        assert data.labels.tobytes() == twin.labels.tobytes()
        fits, twins = (krr_fit(d, LAM, KERNEL, gram_matrix=g) for d in (data, twin))
        assert fits.coeffs.tobytes() == twins.coeffs.tobytes()
        # An F-ordered coefficient block is stored as its C copy too.
        f = RepresenterFunction(KERNEL, pts, np.asfortranarray(block(12)))
        assert f.coeffs.flags.c_contiguous
        assert f.coeffs.tobytes() == np.ascontiguousarray(block(12)).tobytes()

    @pytest.mark.parametrize("shape", [(N, 0), (N - 1, K), (N + 1,), (N, K, 1)])
    def test_rejects_bad_shapes(self, shape):
        pts, _ = design(False)
        with pytest.raises(ValueError, match="shape"):
            DataSet(pts, np.ones(shape))

    def test_block_has_no_risk(self):
        pts, _ = design(False)
        f = RepresenterFunction(KERNEL, pts, block(26)[:, 0])
        with pytest.raises(ValueError, match="one label vector"):
            regularized_risk(f, DataSet(pts, block(27)), LAM)

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
        # Off the Gram point set the difference lies on more anchors than G
        # has points, so G is refused by name; without a Gram matrix a
        # vector's and a block's difference alike take rkhs_norm.
        pts, g = design(False)
        other = PointSet(pts.points + 1.0)
        c = block(15)
        ref = RepresenterFunction(KERNEL, pts, c[:, 0])
        for coeffs in (c[:, 2], c):
            off = RepresenterFunction(KERNEL, other, coeffs)
            want = rkhs_norm(combine(off, ref, 1.0, -1.0))
            got = h_distance(off, ref)
            assert type(got) is type(want) and np.array_equal(got, want)
            with pytest.raises(ValueError, match="^gram_matrix is of size 30, not of the 60 "):
                h_distance(off, ref, gram_matrix=g)

    def test_rejects_empty_sequence(self):
        # An expansion holds at least one column, as a DataSet holds at
        # least one label draw, so h_distance never sees an empty block.
        pts, _ = design(False)
        with pytest.raises(ValueError, match=r"coeffs must be a vector .* got shape \(30, 0\)"):
            RepresenterFunction(KERNEL, pts, np.ones((N, 0)))

    def test_negative_squares_warn_for_each_column(self):
        # The caller's Gram matrix is indefinite: two differences have square
        # -2 and warn, one has square 1.
        pts = PointSet(np.array([[0.0], [1.0]]))
        g = GramMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        ref = RepresenterFunction(KERNEL, pts, np.zeros(2))
        f = RepresenterFunction(KERNEL, pts, np.array([[1.0, 1.0, -1.0], [-1.0, 0.0, 1.0]]))
        with pytest.warns(RuntimeWarning, match="significantly negative") as record:
            assert h_distance(f, ref, gram_matrix=g).tolist() == [0.0, 1.0, 0.0]
        assert len(record) == 2


@pytest.mark.parametrize(
    "call",
    [
        lambda blk, vec: inner_product(blk, vec),
        lambda blk, vec: inner_product(vec, blk),
        lambda blk, vec: regularized_risk(blk, DataSet(vec.anchors, block(33)[:, 0]), LAM),
        lambda blk, vec: closeness_certificate(rkhs_norm, rkhs_norm, vec, blk, 1.0),
    ],
    ids=[
        "inner_product-first",
        "inner_product-second",
        "regularized_risk",
        "closeness_certificate",
    ],
)
def test_vector_only_functions_refuse_a_block(call):
    pts, _ = design(False)
    blk = RepresenterFunction(KERNEL, pts, block(32))
    vec = RepresenterFunction(KERNEL, pts, block(32)[:, 0])
    with pytest.raises(ValueError, match=r"\(30, 4\)"):
        call(blk, vec)


def test_block_norms_are_clamped_and_flagged():
    # An indefinite G gives a significantly negative square in one column
    # only; that column warns and reads 0, the other keeps its norm.
    g = GramMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    c = np.array([[1.0, 1.0], [-1.0, 0.0]])  # squares -2 and 1
    with pytest.warns(RuntimeWarning, match="significantly negative"):
        assert gram_norm(g, c).tolist() == [0.0, 1.0]


def _with_nan(shape):
    c = np.ones(shape)
    c.flat[1] = math.nan
    return c


@pytest.mark.parametrize(
    "call",
    [
        lambda g: gram_norm(g, _with_nan(N)),
        lambda g: gram_norm(g, np.full((N, 1), math.inf)),
        lambda g: decomposition_residual(
            g, _with_nan((N, K)), np.ones(N), np.ones((N, K)), np.ones((N, K)),
            np.full(K, T), np.full(K, LAM),
        ),
        lambda g: shrinkage_term(g, _with_nan(N), LAM),
    ],
    ids=["vector-nan", "block-inf", "decomposition_residual", "shrinkage_term"],
)
def test_gram_norm_refuses_non_finite_coefficients(call):
    # A nan or inf coefficient is refused before the product, in both forms,
    # so no nan norm comes back unflagged.
    _, g = design(False)
    with pytest.raises(ValueError, match="coeffs must be finite"):
        call(g)
