"""Hilbert-space geometry of kernel expansions, cross-checked against
explicit double-sum oracles and the classical inequalities."""

import math

import numpy as np
import pytest

import krstab.cli
import krstab.rkhs
from krstab.kernels import GramMatrix, KernelSpec, PointSet, eval_kernel, gram
from krstab.linalg import DiagnosticsError
from krstab.rkhs import (
    RepresenterFunction,
    combine,
    cross_term_distance,
    evaluate,
    gram_norm,
    h_distance,
    inner_product,
    rkhs_norm,
)
from krstab.solver import DataSet, krr_fit, min_norm_interpolant

GAUSS = KernelSpec.gaussian(1.0)


def random_function(rng, spec=GAUSS, d=1, max_anchors=5):
    m = int(rng.integers(1, max_anchors + 1))
    return RepresenterFunction(
        spec, PointSet(rng.uniform(-2.0, 2.0, (m, d))), rng.uniform(-1.5, 1.5, m)
    )


def inner_product_oracle(f, g):
    """Double sum over anchor pairs, one eval_kernel call at a time."""
    total = 0.0
    for ci, xi in zip(f.coeffs, f.anchors.points):
        for cj, yj in zip(g.coeffs, g.anchors.points):
            total += ci * cj * eval_kernel(f.kernel, xi, yj)
    return total


class TestEvaluate:
    def test_zero_coefficients(self):
        f = RepresenterFunction(GAUSS, PointSet([[0.0], [1.0]]), [0.0, 0.0])
        assert evaluate(f, [0.5]).tolist() == [0.0]

    def test_single_anchor_at_anchor(self):
        f = RepresenterFunction(GAUSS, PointSet([[0.0]]), [2.0])
        assert evaluate(f, [0.0]).tolist() == [2.0]

    def test_two_anchor_value(self):
        f = RepresenterFunction(GAUSS, PointSet([[0.0], [1.0]]), [1.0, 1.0])
        expect = 1.0 + math.exp(-0.5)
        assert abs(evaluate(f, [0.0])[0] - expect) < 1e-15

    def test_batch_matches_single(self):
        rng = np.random.default_rng(20)
        f = random_function(rng, d=2)
        xs = rng.normal(size=(7, 2))
        batch = evaluate(f, xs)
        singles = [evaluate(f, [x])[0] for x in xs]
        np.testing.assert_allclose(batch, singles, rtol=1e-15)

    def test_scalar_vs_vector_of_scalars(self):
        # Points are read as a PointSet reads them: a scalar is no point set,
        # and a 1-D array is one point on the line per entry, one value each.
        f = random_function(np.random.default_rng(21), d=1)
        with pytest.raises(ValueError, match=r"points must form an \(n, d\) array"):
            evaluate(f, 0.1)
        xs = np.array([0.1, 0.7, -0.3])
        vals = evaluate(f, xs)
        assert vals.shape == (3,)
        assert vals.tobytes() == evaluate(f, PointSet(xs.reshape(-1, 1))).tobytes()
        np.testing.assert_allclose(vals, [evaluate(f, [[x]])[0] for x in xs])

    def test_wrong_dimension_raises(self):
        f = random_function(np.random.default_rng(22), d=3)
        with pytest.raises(ValueError):
            evaluate(f, [1.0, 2.0])


class TestInnerProduct:
    def test_reproducing_section_self(self):
        f = RepresenterFunction(GAUSS, PointSet([[0.3]]), [1.0])
        assert inner_product(f, f) == 1.0

    def test_zero_function(self):
        f = RepresenterFunction(GAUSS, PointSet([[0.0]]), [0.0])
        g = RepresenterFunction(GAUSS, PointSet([[1.0]]), [3.0])
        assert inner_product(f, g) == 0.0

    def test_against_double_sum_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            f, g = random_function(rng), random_function(rng)
            assert abs(inner_product(f, g) - inner_product_oracle(f, g)) < 1e-12

    def test_symmetry_and_bilinearity(self):
        rng = np.random.default_rng(24)
        f, g, h = (random_function(rng) for _ in range(3))
        assert abs(inner_product(f, g) - inner_product(g, f)) < 1e-14
        fg = combine(f, g, 2.0, -1.0)
        assert abs(
            inner_product(fg, h) - (2.0 * inner_product(f, h) - inner_product(g, h))
        ) < 1e-12

    def test_reproducing_property(self):
        # (f, K_x)_H == f(x)
        rng = np.random.default_rng(25)
        for _ in range(100):
            f = random_function(rng)
            x = rng.uniform(-2.0, 2.0, 1)
            section = RepresenterFunction(GAUSS, PointSet(x.reshape(1, 1)), [1.0])
            assert abs(inner_product(f, section) - evaluate(f, x)[0]) < 1e-12

    def test_kernel_mismatch_raises(self):
        f = RepresenterFunction(GAUSS, PointSet([[0.0]]), [1.0])
        g = RepresenterFunction(KernelSpec.gaussian(2.0), PointSet([[0.0]]), [1.0])
        with pytest.raises(ValueError, match="kernel mismatch"):
            inner_product(f, g)

    def test_dimension_mismatch_raises(self):
        # kernel_matrix refuses anchors of different dimensions.
        f = RepresenterFunction(GAUSS, PointSet([[0.0]]), [1.0])
        g = RepresenterFunction(GAUSS, PointSet([[0.0, 1.0]]), [1.0])
        with pytest.raises(ValueError, match="dimensions differ"):
            inner_product(f, g)


class TestNormAndDistance:
    def test_scaled_section_norm(self):
        f = RepresenterFunction(GAUSS, PointSet([[0.0]]), [2.0])
        assert rkhs_norm(f) == 2.0

    def test_distance_to_self_is_zero(self):
        f = random_function(np.random.default_rng(26))
        assert h_distance(f, f) == 0.0

    def test_distance_via_polarization(self):
        rng = np.random.default_rng(27)
        for _ in range(30):
            f, g = random_function(rng), random_function(rng)
            direct = h_distance(f, g)
            expanded = math.sqrt(
                max(
                    inner_product(f, f) - 2.0 * inner_product(f, g) + inner_product(g, g),
                    0.0,
                )
            )
            assert abs(direct - expanded) < 1e-10

    @pytest.mark.parametrize(
        "case,gram_used",
        [
            ("same points", True),
            ("anchors differ", False),
            ("duplicate rows", True),
            ("byte-equal gram points", True),
            ("gram size differs", False),
        ],
    )
    def test_supplied_gram_matrix(self, monkeypatch, case, gram_used):
        # A fit and the interpolant over one point set, as in the thm2 harness.
        rng = np.random.default_rng(33)
        rows = rng.uniform(-2.0, 2.0, (12, 2))
        if case == "duplicate rows":
            rows[7] = rows[3]
        pts = PointSet(rows)
        g = gram(GAUSS, pts)
        values = np.sin(rows[:, 0]) + rows[:, 1]
        fit = krr_fit(DataSet(pts, values + 0.1), 1e-3, GAUSS, gram_matrix=g)
        other = min_norm_interpolant(pts, values, GAUSS, gram_matrix=g)
        if case == "anchors differ":
            other = random_function(rng, d=2)
        if case == "byte-equal gram points":
            g = gram(GAUSS, PointSet(rows))
        if case == "gram size differs":
            # From raw entries, which record no points: the size is its check.
            g = GramMatrix(gram(GAUSS, PointSet(rows[:-1])).entries)
        if not gram_used:
            # The difference is on more anchors than G has points, or G is
            # of another size: either would give another distance.
            with pytest.raises(ValueError, match="^gram_matrix is of size 1[12], not of the "):
                h_distance(fit, other, gram_matrix=g)
            return
        expect = h_distance(fit, other)
        built = []
        kernel_matrix = krstab.rkhs.kernel_matrix

        def counted(*args):
            built.append(args)
            return kernel_matrix(*args)

        monkeypatch.setattr(krstab.rkhs, "kernel_matrix", counted)
        got = h_distance(fit, other, gram_matrix=g)
        assert not built
        # One quadratic form on one matrix: a gaussian G has the bits of the
        # kernel matrix that rkhs_norm builds.
        assert got == expect > 0.0

    @pytest.mark.parametrize(
        "other",
        [
            (GAUSS, PointSet([[0.0], [5.0], [9.0]])),
            (KernelSpec.gaussian(3.0), PointSet([[0.0], [1.0], [2.0]])),
            (GAUSS, PointSet([[0.0], [1.0]])),
        ],
        ids=["other points", "another kernel", "fewer points"],
    )
    def test_refuses_a_gram_matrix_of_other_points_or_kernel(self, other):
        # Used on f's points, it would give another distance without an error.
        pts = PointSet([[0.0], [1.0], [2.0]])
        f = RepresenterFunction(GAUSS, pts, [0.8, 0.3, -0.3])
        fbar = RepresenterFunction(GAUSS, pts, [0.9, 0.3, -0.3])
        with pytest.raises(ValueError, match="^gram_matrix is of "):
            h_distance(f, fbar, gram_matrix=gram(*other))

    def test_supplied_gram_matrix_clamps_negative_squares(self):
        pts = PointSet([[0.0], [1.0]])
        f = RepresenterFunction(GAUSS, pts, [1.0, 0.0])
        g = RepresenterFunction(GAUSS, pts, [0.0, 1.0])
        indefinite = GramMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # d'Gd = -2
        with pytest.warns(RuntimeWarning, match="significantly negative"):
            assert h_distance(f, g, gram_matrix=indefinite) == 0.0

    def test_a_negative_square_warns_at_the_callers_line(self, monkeypatch):
        # rkhs_norm and gram_norm share one quadratic form; its warning still
        # names the line that called the public function.
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        monkeypatch.setattr(krstab.rkhs, "kernel_matrix", lambda *args: indefinite)
        f = RepresenterFunction(GAUSS, PointSet([[0.0], [1.0]]), [1.0, -1.0])
        for norm in (lambda: rkhs_norm(f), lambda: gram_norm(GramMatrix(indefinite), f.coeffs)):
            with pytest.warns(RuntimeWarning, match="significantly negative") as record:
                assert norm() == 0.0
            assert [w.filename for w in record] == [__file__]

    @pytest.mark.parametrize(
        "norm",
        [
            lambda: cross_term_distance([1e200], [1e200], [1e200], 1.0),  # inf - inf
            lambda: rkhs_norm(RepresenterFunction(GAUSS, PointSet([[0.0]]), [1e200])),
            lambda: gram_norm(GramMatrix(np.eye(2)), [[1.0, 1e200], [0.0, 0.0]]),
        ],
        ids=["cross_term_distance", "rkhs_norm", "gram_norm"],
    )
    def test_a_square_that_overflows_is_a_diagnostic(self, norm):
        # max(nan, 0.0) is nan, and sqrt(inf) is inf: both passed through.
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DiagnosticsError, match=r"^squared norm (nan|inf) is not finite"):
                norm()

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(28)
        for _ in range(50):
            f, g = random_function(rng), random_function(rng)
            assert abs(inner_product(f, g)) <= rkhs_norm(f) * rkhs_norm(g) + 1e-12

    def test_triangle_inequality(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            f, g, h = (random_function(rng) for _ in range(3))
            assert h_distance(f, h) <= h_distance(f, g) + h_distance(g, h) + 1e-12

    def test_sup_norm_bound(self):
        # |f(x)| <= ||f||_H * sqrt(K(x, x))
        rng = np.random.default_rng(30)
        for _ in range(50):
            f = random_function(rng)
            x = rng.uniform(-3.0, 3.0, 1)
            bound = rkhs_norm(f) * math.sqrt(eval_kernel(GAUSS, x, x))
            assert abs(evaluate(f, x)[0]) <= bound + 1e-12


def combine_oracle(f, g, a, b):
    """a*f + b*g with byte-equal anchor rows merged one row at a time (first
    occurrence kept, each duplicate added to a running sum): another
    expansion of the same function, so it has the same H-norm as combine's."""
    rows, coeffs, slot = [], [], {}
    for pts, cs in ((f.anchors.points, a * f.coeffs), (g.anchors.points, b * g.coeffs)):
        for row, c in zip(pts, cs):
            key = row.tobytes()
            if key in slot:
                coeffs[slot[key]] += c
            else:
                slot[key] = len(rows)
                rows.append(row)
                coeffs.append(c)
    return RepresenterFunction(f.kernel, PointSet(np.array(rows)), np.array(coeffs))


class TestCombine:
    @pytest.mark.parametrize(
        "rows",
        [
            [[0.3, 1.0], [-0.0, 0.5], [0.0, 0.5], [2.0, -1.0]],
            [[0.3, 1.0], [1.5, 0.5], [0.3, 1.0], [2.0, -1.0]],
        ],
        ids=["distinct rows", "repeated rows"],
    )
    def test_one_point_set_adds_coefficients(self, rows):
        pts = PointSet(rows)
        rng = np.random.default_rng(34)
        f = RepresenterFunction(GAUSS, pts, rng.uniform(-1e8, 1e8, 4))
        g = RepresenterFunction(GAUSS, PointSet(rows), rng.uniform(-1e-8, 1e-8, 4))
        for other in (f, g):
            s = combine(f, other, 0.3, -1.7)
            # One point set, repeated rows or not: the set object is kept.
            assert s.anchors is pts
            assert s.coeffs.tobytes() == (0.3 * f.coeffs + -1.7 * other.coeffs).tobytes()
        h = RepresenterFunction(GAUSS, PointSet(rows[::-1]), g.coeffs)
        s = combine(f, h, 0.3, -1.7)
        assert s.anchors.points.tobytes() == np.vstack([pts.points, h.anchors.points]).tobytes()
        assert s.coeffs.tobytes() == np.concatenate([0.3 * f.coeffs, -1.7 * h.coeffs]).tobytes()

    def test_distance_over_duplicate_points_unchanged(self):
        rows = np.array([[0.0], [0.5], [0.0], [1.0]])
        pts = PointSet(rows)
        g = gram(GAUSS, pts)
        f = RepresenterFunction(GAUSS, pts, [1.0, -2.0, 0.5, 3.0])
        h = RepresenterFunction(GAUSS, pts, [0.25, 1.0, -1.5, 2.0])
        # The difference keeps the repeated rows, and both paths take the
        # one quadratic form on them.
        expect = gram_norm(g, f.coeffs - h.coeffs)
        assert h_distance(f, h) == expect == h_distance(f, h, gram_matrix=g)
        # The merged expansion is the same function, its square summed over
        # fewer terms.
        merged = rkhs_norm(combine_oracle(f, h, 1.0, -1.0))
        assert abs(merged - expect) <= 1e-12 * expect

    def test_merges_exact_duplicates(self):
        pts = PointSet([[0.0], [1.0]])
        f = RepresenterFunction(GAUSS, pts, [1.0, 2.0])
        g = RepresenterFunction(GAUSS, pts, [0.5, -2.0])
        s = combine(f, g, 1.0, 1.0)
        assert len(s.anchors) == 2
        np.testing.assert_allclose(s.coeffs, [1.5, 0.0])

    def test_keeps_distinct_anchors(self):
        f = RepresenterFunction(GAUSS, PointSet([[0.0]]), [1.0])
        g = RepresenterFunction(GAUSS, PointSet([[1e-300]]), [1.0])
        assert len(combine(f, g).anchors) == 2

    def test_keeps_signed_zero_rows_apart(self):
        f = RepresenterFunction(GAUSS, PointSet([[0.0], [-0.0]]), [1.0, 2.0])
        s = combine(f, f)
        assert s.anchors.points.tobytes() == np.array([0.0, -0.0]).tobytes()
        assert s.coeffs.tolist() == [2.0, 4.0]

    def test_linear_in_evaluation(self):
        rng = np.random.default_rng(31)
        f, g = random_function(rng), random_function(rng)
        s = combine(f, g, 0.7, -1.3)
        xs = rng.uniform(-2, 2, 10)
        expect = 0.7 * evaluate(f, xs) - 1.3 * evaluate(g, xs)
        assert np.max(np.abs(evaluate(s, xs) - expect)) < 1e-12


class TestJson:
    def test_unknown_key_raises(self):
        # an expansion object is read from JSON by the CLI's expansion parser
        obj = {"kernel": {"kind": "linear"}, "anchors": [[0.0]], "coeffs": [1.0], "bogus": 1}
        with pytest.raises(ValueError, match="config key f_tilde/bogus: unknown key"):
            krstab.cli._function(obj, "f_tilde")


def test_coeff_length_mismatch():
    with pytest.raises(ValueError):
        RepresenterFunction(GAUSS, PointSet([[0.0]]), [1.0, 2.0])
