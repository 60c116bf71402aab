"""Closed-form fit and minimal-norm interpolant: pinned small cases, the
first-order optimality residual, a direct perturbation oracle, and the
interpolant's defining properties."""

import numpy as np
import pytest

from krstab.kernels import GramMatrix, KernelSpec, PointSet, gram
from krstab.linalg import DiagnosticsError, regularized_solve
from krstab.operators import EvaluationOperator, ker_p_sample
from krstab.rkhs import RepresenterFunction, evaluate, h_distance, inner_product, rkhs_norm
from krstab.rng import SplitMix64
from krstab.solver import (
    DataSet,
    closeness_certificate,
    krr_fit,
    min_norm_interpolant,
    regularized_risk,
)

GAUSS = KernelSpec.gaussian(1.0)


class TestRegularizedRisk:
    def test_zero_function(self):
        f = RepresenterFunction(GAUSS, PointSet([[0.0]]), [0.0])
        data = DataSet(PointSet([[0.0], [1.0]]), [1.0, 3.0])
        assert regularized_risk(f, data, 0.5) == np.mean([1.0, 9.0])

    def test_interpolating_section(self):
        # f = K_x fits (x, 1) exactly: risk is lam * ||f||^2 = lam
        f = RepresenterFunction(GAUSS, PointSet([[0.0]]), [1.0])
        data = DataSet(PointSet([[0.0]]), [1.0])
        assert abs(regularized_risk(f, data, 0.25) - 0.25) < 1e-15

    def test_rejects_nonpositive_lambda(self):
        f = RepresenterFunction(GAUSS, PointSet([[0.0]]), [1.0])
        data = DataSet(PointSet([[0.0]]), [1.0])
        with pytest.raises(ValueError):
            regularized_risk(f, data, 0.0)


class TestSuppliedGramMatrix:
    # A Gram matrix from gram() records its kernel and points.  One of other
    # points or of another kernel would give another fit without an error.
    PTS = PointSet([[0.0], [1.0], [2.0]])
    LABELS = [1.0, 0.5, -0.2]
    SPEC = KernelSpec.gaussian(0.7)

    @pytest.mark.parametrize(
        "other",
        [
            (SPEC, PointSet([[0.0], [5.0], [9.0]])),
            (KernelSpec.gaussian(3.0), PTS),
            (SPEC, PointSet([[0.0], [1.0]])),
        ],
        ids=["other points", "another kernel", "fewer points"],
    )
    def test_solvers_refuse_it(self, other):
        g = gram(*other)
        with pytest.raises(ValueError, match="^gram_matrix is of "):
            krr_fit(DataSet(self.PTS, self.LABELS), 0.05, self.SPEC, gram_matrix=g)
        with pytest.raises(ValueError, match="^gram_matrix is of "):
            min_norm_interpolant(self.PTS, self.LABELS, self.SPEC, gram_matrix=g)

    @pytest.mark.parametrize("size", [2, 4])
    def test_a_raw_matrix_of_another_size_is_refused_by_name(self, size):
        # A matrix from raw entries records no points: its size is checked,
        # by all three functions that take a gram_matrix=.
        g = GramMatrix(gram(self.SPEC, PointSet(np.arange(size, dtype=float))).entries)
        f = RepresenterFunction(self.SPEC, self.PTS, [0.8, 0.3, -0.3])
        calls = [
            lambda: krr_fit(DataSet(self.PTS, self.LABELS), 0.05, self.SPEC, gram_matrix=g),
            lambda: min_norm_interpolant(self.PTS, self.LABELS, self.SPEC, gram_matrix=g),
            lambda: h_distance(f, f, gram_matrix=g),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"^gram_matrix is of size {size}, not of the 3 "):
                call()

    def test_byte_equal_points_and_raw_entries_are_used(self):
        # The same rows in another PointSet, or raw points, are the same
        # points; a matrix from raw entries records none and is trusted.
        data = DataSet(self.PTS, self.LABELS)
        fit = krr_fit(data, 0.05, self.SPEC).coeffs.tobytes()
        interpolant = min_norm_interpolant(self.PTS, self.LABELS, self.SPEC).coeffs.tobytes()
        own = gram(self.SPEC, self.PTS.points.copy())
        for g in (own, GramMatrix(own.entries)):
            assert krr_fit(data, 0.05, self.SPEC, gram_matrix=g).coeffs.tobytes() == fit
            for pts in (self.PTS, self.PTS.points.tolist()):
                got = min_norm_interpolant(pts, self.LABELS, self.SPEC, gram_matrix=g)
                assert got.coeffs.tobytes() == interpolant


class TestKrrFit:
    def test_single_point_closed_form(self):
        # n=1, G=[[1]]: alpha = y / (1 + lam)
        data = DataSet(PointSet([[0.0]]), [2.0])
        f = krr_fit(data, 1.0, GAUSS)
        np.testing.assert_allclose(f.coeffs, [1.0])
        assert abs(regularized_risk(f, data, 1.0) - 2.0) < 1e-15

    def test_zero_labels_zero_fit(self):
        data = DataSet(PointSet([[0.0], [1.0]]), [0.0, 0.0])
        f = krr_fit(data, 0.1, GAUSS)
        np.testing.assert_array_equal(f.coeffs, [0.0, 0.0])
        assert regularized_risk(f, data, 0.1) == 0.0

    def test_first_order_condition(self):
        rng = np.random.default_rng(40)
        for _ in range(25):
            n = int(rng.integers(1, 25))
            pts = PointSet(np.sort(rng.uniform(0, n, n)).reshape(-1, 1))
            y = rng.uniform(-2, 2, n)
            lam = float(10.0 ** rng.uniform(-4, 0))
            f = krr_fit(DataSet(pts, y), lam, KernelSpec.gaussian(0.5))
            g = gram(KernelSpec.gaussian(0.5), pts).entries
            resid = np.max(np.abs((g + n * lam * np.eye(n)) @ f.coeffs - y))
            assert resid <= 1e-9 * (1.0 + np.max(np.abs(y)))

    def test_beats_random_perturbations(self):
        # direct optimality oracle: no probed coefficient vector does better
        rng = np.random.default_rng(41)
        pts = PointSet(rng.uniform(0, 5, (8, 1)))
        data = DataSet(pts, rng.uniform(-1, 1, 8))
        lam = 0.05
        f = krr_fit(data, lam, GAUSS)
        base = regularized_risk(f, data, lam)
        for _ in range(200):
            scale = float(10.0 ** rng.uniform(-6, 0))
            probe = RepresenterFunction(
                GAUSS, pts, f.coeffs + rng.normal(size=8) * scale
            )
            assert regularized_risk(probe, data, lam) >= base - 1e-12

    def test_norm_shrinks_with_lambda(self):
        rng = np.random.default_rng(44)
        pts = PointSet(rng.uniform(0, 4, (10, 1)))
        data = DataSet(pts, rng.uniform(-1, 1, 10))
        norms = [
            rkhs_norm(krr_fit(data, lam, GAUSS)) for lam in (1e-3, 1e-2, 1e-1, 1.0)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            krr_fit(DataSet(PointSet([[0.0]]), [1.0]), 0.0, GAUSS)

    def test_rejects_an_infinite_shift(self):
        # An infinite lam, or one column's infinite shift, would give a zero
        # fit; each is refused by name as a value that is not finite.
        pts = PointSet([[0.0], [1.0]])
        g = gram(GAUSS, pts)
        y = np.array([[1.0, 2.0], [0.5, -1.0]])
        with pytest.raises(ValueError, match="lam must be finite"):
            krr_fit(DataSet(pts, y[:, 0]), np.inf, GAUSS)
        for shift in (np.inf, [1.0, np.inf]):
            with pytest.raises(ValueError, match="shift must be finite"):
                regularized_solve(g, shift, y)


class TestMinNormInterpolant:
    def test_single_point(self):
        f = min_norm_interpolant(PointSet([[0.0]]), [3.0], GAUSS)
        np.testing.assert_allclose(f.coeffs, [3.0])

    def test_zero_values_zero_function(self):
        f = min_norm_interpolant(PointSet([[0.0], [1.0]]), [0.0, 0.0], GAUSS)
        np.testing.assert_array_equal(f.coeffs, [0.0, 0.0])

    def test_interpolates(self, instance_factory):
        rng = np.random.default_rng(45)
        for _ in range(10):
            spec, pts, g = instance_factory(rng, 1e3)
            vals = rng.uniform(-1, 1, len(pts))
            f = min_norm_interpolant(pts, vals, spec, gram_matrix=g)
            assert np.max(np.abs(evaluate(f, pts) - vals)) <= 1e-8

    def test_is_limit_of_ridge_fits(self, instance_factory):
        rng = np.random.default_rng(46)
        spec, pts, g = instance_factory(rng, 1e3)
        vals = rng.uniform(-1, 1, len(pts))
        fbar = min_norm_interpolant(pts, vals, spec, gram_matrix=g)
        f = krr_fit(DataSet(pts, vals), 1e-12, spec, gram_matrix=g)
        assert h_distance(f, fbar) <= 1e-5

    def test_orthogonal_to_kernel_of_p(self, instance_factory):
        # the interpolant has no component vanishing on the points
        rng = np.random.default_rng(47)
        spec, pts, g = instance_factory(rng, 1e3)
        vals = rng.uniform(-1, 1, len(pts))
        fbar = min_norm_interpolant(pts, vals, spec, gram_matrix=g)
        op = EvaluationOperator(spec, pts)
        lo = float(pts.points.min()) - 0.5
        hi = float(pts.points.max()) + 0.5
        for s in range(10):
            extra = PointSet(rng.uniform(lo, hi, (2, pts.dim)))
            h = ker_p_sample(op, extra, seed=s)
            denom = max(rkhs_norm(fbar) * rkhs_norm(h), 1e-12)
            assert abs(inner_product(fbar, h)) <= 1e-8 * denom

    def test_minimal_among_interpolants(self, instance_factory):
        rng = np.random.default_rng(48)
        spec, pts, g = instance_factory(rng, 1e3)
        vals = rng.uniform(-1, 1, len(pts))
        fbar = min_norm_interpolant(pts, vals, spec, gram_matrix=g)
        op = EvaluationOperator(spec, pts)
        lo = float(pts.points.min()) - 0.5
        hi = float(pts.points.max()) + 0.5
        from krstab.rkhs import combine

        for s in range(20):
            extra = PointSet(rng.uniform(lo, hi, (2, pts.dim)))
            h = ker_p_sample(op, extra, seed=s)
            other = combine(fbar, h, 1.0, 1.0)
            assert rkhs_norm(fbar) <= rkhs_norm(other) + 1e-10


class TestClosenessCertificate:
    def _fit_pair(self):
        rng = np.random.default_rng(49)
        pts = PointSet(rng.uniform(0, 3, (6, 1)))
        y = rng.uniform(-1, 1, 6)
        d1 = DataSet(pts, y)
        d2 = DataSet(pts, y + rng.uniform(-0.01, 0.01, 6))
        lam = 0.2
        l1 = lambda f: regularized_risk(f, d1, lam)
        l2 = lambda f: regularized_risk(f, d2, lam)
        f1 = krr_fit(d1, lam, GAUSS)
        f2 = krr_fit(d2, lam, GAUSS)
        return l1, l2, f1, f2

    def test_identical_functionals_pass(self):
        l1, _, f1, _ = self._fit_pair()
        cert = closeness_certificate(l1, l1, f1, f1, eps=1e-6)
        assert cert.passed
        assert cert.minimizers_gap == 0.0
        assert cert.first_functional_gap == 0.0
        assert cert.max_probe_gap == 0.0

    def test_nearby_functionals_pass(self):
        l1, l2, f1, f2 = self._fit_pair()
        cert = closeness_certificate(l1, l2, f1, f2, eps=0.1)
        assert cert.passed and cert.minimizers_gap_ok and cert.first_functional_gap_ok
        assert cert.first_functional_gap <= 2 * cert.eps

    def test_shifted_functional_fails(self):
        l1, _, f1, _ = self._fit_pair()
        shifted = lambda f: l1(f) + 10.0
        cert = closeness_certificate(l1, shifted, f1, f1, eps=0.1)
        assert not cert.passed
        assert cert.max_probe_gap >= 10.0 - 1e-12

    def test_deterministic_in_seed(self):
        l1, l2, f1, f2 = self._fit_pair()
        a = closeness_certificate(l1, l2, f1, f2, eps=0.1, seed=7)
        b = closeness_certificate(l1, l2, f1, f2, eps=0.1, seed=7)
        assert a == b

    def test_probe_bumps_are_scalar_uniform_draws(self):
        l1, l2, f1, f2 = self._fit_pair()
        seen = []

        def recording(f):
            seen.append(f.coeffs)
            return l1(f)

        closeness_certificate(recording, l2, f1, f2, eps=0.1, seed=11)
        stream = SplitMix64(11)
        expect = []
        for base in (f1, f2):
            scale = 0.1 * (1.0 + float(np.max(np.abs(base.coeffs))))
            for _ in range(8):
                bump = np.array(
                    [-scale + 2 * scale * stream.next_double() for _ in base.coeffs]
                )
                expect.append(base.coeffs + bump)
        assert [c.tobytes() for c in seen[3:19]] == [c.tobytes() for c in expect]

    def test_broken_functional_is_diagnosed(self):
        l1, _, f1, _ = self._fit_pair()

        def broken(f):
            raise ArithmeticError("boom")

        with pytest.raises(DiagnosticsError, match="failed to evaluate"):
            closeness_certificate(l1, broken, f1, f1, eps=0.1)

    def test_nonfinite_functional_is_diagnosed(self):
        l1, _, f1, _ = self._fit_pair()
        with pytest.raises(DiagnosticsError, match="non-finite"):
            closeness_certificate(l1, lambda f: float("inf"), f1, f1, eps=0.1)


class TestDataSet:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            DataSet(PointSet([[0.0]]), [1.0, 2.0])

    def test_rejects_nonfinite_labels(self):
        with pytest.raises(ValueError):
            DataSet(PointSet([[0.0]]), [np.nan])
