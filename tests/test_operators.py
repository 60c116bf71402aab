"""Evaluation operator, adjoint, spectral filter bounds, and the error
decomposition identity; the closed-form filter maximum is checked against a
dense grid search."""

import math

import numpy as np
import pytest

from krstab.kernels import GramMatrix, KernelSpec, PointSet, eval_kernel, gram
from krstab.linalg import pinv_solve, regularized_solve
from krstab.operators import (
    EvaluationOperator,
    apply_p,
    apply_p_star,
    decomposition_residual,
    filter_gain_bound,
    filter_gains,
    filter_max,
    ker_p_sample,
    noise_operator_bound,
    operator_norm_bound_p,
    shrinkage_profile,
    shrinkage_term,
)
from krstab.rkhs import RepresenterFunction, evaluate, h_distance, inner_product
from krstab.rng import SplitMix64

GAUSS = KernelSpec.gaussian(1.0)


def shrink_solve(g, beta, lam):
    """(G + n lam I)^{-1} beta, the piece the thm2 harness solves once per t."""
    return regularized_solve(g, g.n * lam, beta)


def residual(g, vals, b, t, lam):
    """decomposition_residual with its pieces computed as the thm2 harness
    computes them: the ridge fit, the minimal-norm solve and the per-t solve;
    the fit and its noise go in as one-column blocks."""
    alpha = regularized_solve(g, g.n * lam, vals + b / t)
    beta = pinv_solve(g, vals)
    shrink = shrink_solve(g, beta, lam)
    return decomposition_residual(g, alpha[:, None], beta, shrink, b[:, None], t, lam)[0]


def make_op(rng, n=6, width=0.6):
    pts = PointSet(np.sort(rng.uniform(0, n, n)).reshape(-1, 1))
    return EvaluationOperator(KernelSpec.gaussian(width), pts)


class TestApply:
    def test_p_zero_function(self):
        op = make_op(np.random.default_rng(50))
        f = RepresenterFunction(op.kernel, PointSet([[0.0]]), [0.0])
        np.testing.assert_array_equal(apply_p(op, f), np.zeros(op.n))

    def test_p_on_section_gives_gram_column(self):
        op = make_op(np.random.default_rng(51))
        f = RepresenterFunction(op.kernel, PointSet(op.pts.points[:1]), [1.0])
        np.testing.assert_allclose(apply_p(op, f), op.gram.entries[:, 0], atol=1e-14)

    def test_p_star_basis_vector(self):
        op = make_op(np.random.default_rng(52))
        e0 = np.zeros(op.n)
        e0[0] = 1.0
        f = apply_p_star(op, e0)
        for x in np.linspace(0, 6, 13):
            assert abs(
                evaluate(f, float(x)) - eval_kernel(op.kernel, [x], op.pts.points[0])
            ) < 1e-14

    def test_adjointness(self):
        # (P* c, f)_H == c . P(f)
        rng = np.random.default_rng(53)
        for _ in range(20):
            op = make_op(rng)
            c = rng.uniform(-1, 1, op.n)
            f = RepresenterFunction(
                op.kernel, PointSet(rng.uniform(0, 6, (4, 1))), rng.uniform(-1, 1, 4)
            )
            lhs = inner_product(apply_p_star(op, c), f)
            rhs = float(c @ apply_p(op, f))
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))

    def test_p_of_p_star_is_gram(self):
        rng = np.random.default_rng(54)
        op = make_op(rng)
        c = rng.uniform(-1, 1, op.n)
        np.testing.assert_allclose(
            apply_p(op, apply_p_star(op, c)), op.gram.entries @ c, atol=1e-12
        )

    def test_kernel_mismatch(self):
        op = make_op(np.random.default_rng(55))
        f = RepresenterFunction(KernelSpec.linear(), PointSet([[0.0]]), [1.0])
        with pytest.raises(ValueError):
            apply_p(op, f)


class TestOperatorNormBound:
    def test_identity_gram(self):
        op = EvaluationOperator(GAUSS, PointSet([[0.0]]))
        assert operator_norm_bound_p(op) == 1.0

    def test_all_ones_gram(self):
        # two identical points: G = [[1,1],[1,1]], bound sqrt(2)
        op = EvaluationOperator(GAUSS, PointSet([[0.0], [0.0]]))
        assert abs(operator_norm_bound_p(op) - math.sqrt(2.0)) < 1e-15

    def test_dominates_spectral_norm(self):
        # true ||P|| = sqrt(gamma_max)
        rng = np.random.default_rng(56)
        for _ in range(30):
            op = make_op(rng, n=int(rng.integers(2, 12)), width=rng.uniform(0.4, 1.2))
            gmax = float(op.gram.eigen.eigenvalues[0])
            assert operator_norm_bound_p(op) >= math.sqrt(gmax) - 1e-12


class TestKerPSample:
    def test_vanishes_on_points(self):
        rng = np.random.default_rng(57)
        for s in range(10):
            op = make_op(rng)
            extra = PointSet(rng.uniform(0, 6, (2, 1)))
            h = ker_p_sample(op, extra, seed=s)
            assert np.max(np.abs(evaluate(h, op.pts))) <= 1e-8

    def test_zero_extra_coeffs_gives_zero_function(self):
        op = make_op(np.random.default_rng(58))
        h = ker_p_sample(op, PointSet([[2.5]]), extra_coeffs=[0.0])
        np.testing.assert_array_equal(h.coeffs, np.zeros(op.n + 1))

    def test_two_point_closed_form(self):
        # one base point x, one extra z: h = c K_z - c K(x,z)/K(x,x) K_x
        op = EvaluationOperator(GAUSS, PointSet([[0.0]]))
        h = ker_p_sample(op, PointSet([[1.0]]), extra_coeffs=[1.0])
        np.testing.assert_allclose(h.coeffs, [-math.exp(-0.5), 1.0], atol=1e-14)

    def test_nonzero_sample(self):
        op = make_op(np.random.default_rng(59))
        h = ker_p_sample(op, PointSet([[2.5], [3.1]]), seed=4)
        from krstab.rkhs import rkhs_norm

        assert rkhs_norm(h) > 1e-3

    def test_random_coeffs_are_scalar_uniform_draws(self):
        op = make_op(np.random.default_rng(61))
        extra = PointSet([[2.5], [3.1], [7.2]])
        for seed in (0, 9, 2**64 - 1):
            h = ker_p_sample(op, extra, seed=seed)
            stream = SplitMix64(seed)
            expect = np.array([stream.uniform(-1.0, 1.0) for _ in range(3)])
            assert h.coeffs[op.n :].tobytes() == expect.tobytes()

    def test_rejects_overlapping_extra(self):
        op = make_op(np.random.default_rng(60))
        with pytest.raises(ValueError, match="disjoint"):
            ker_p_sample(op, PointSet(op.pts.points[2:3]), seed=0)


class TestFilterBounds:
    def test_filter_max_pinned_values(self):
        assert filter_max(4, 1.0) == (4.0, 1.0)
        assert filter_max(1, 0.25) == (0.25, 1.0)

    def test_filter_max_against_grid_search(self):
        # dense grid oracle over z in [0, 10 n lam]
        for n, lam in [(5, 0.1), (50, 1e-3), (12, 2.0)]:
            argmax, value = filter_max(n, lam)
            zs = np.linspace(0, 10 * n * lam, 200001)
            profile = zs / (zs / n + lam) ** 2
            k = int(np.argmax(profile))
            assert abs(zs[k] - argmax) <= zs[1] - zs[0] + 1e-12
            assert profile[k] <= value + 1e-9
            assert abs(profile[k] - value) <= 1e-6 * value

    def test_gain_bound_squares_to_filter_max(self):
        for n, lam in [(3, 0.5), (40, 1e-2)]:
            assert abs(filter_gain_bound(n, lam) ** 2 - filter_max(n, lam)[1]) < 1e-12

    def test_gains_below_bound(self, psd_factory):
        rng = np.random.default_rng(61)
        for _ in range(30):
            g = psd_factory(rng, int(rng.integers(2, 20)))
            for lam in (1e-3, 0.1, 1.0):
                gains = filter_gains(g, lam)
                assert np.max(gains) <= filter_gain_bound(g.n, lam) + 1e-10

    def test_manufactured_eigenvalue_attains_bound(self, psd_factory):
        rng = np.random.default_rng(62)
        lam = 0.05
        g = psd_factory(rng, 8, forced_eigenvalue=8 * lam)
        gains = filter_gains(g, lam)
        assert abs(np.max(gains) - filter_gain_bound(8, lam)) <= 1e-9


class TestNoiseBound:
    def test_pinned_value(self):
        assert noise_operator_bound(1, 1.0, 0.25, 1.0) == 1.0

    def test_zero_noise(self):
        assert noise_operator_bound(10, 2.0, 0.5, 0.0) == 0.0

    def test_scales_inversely_with_t(self):
        a = noise_operator_bound(9, 1.0, 0.1, 2.0)
        b = noise_operator_bound(9, 10.0, 0.1, 2.0)
        assert abs(a - 10.0 * b) < 1e-12

    def test_dominates_actual_noise_image(self):
        # || (1/(nt)) (G/n + lam)^{-1} P* b ||_H <= bound with ||b||_2
        rng = np.random.default_rng(63)
        for _ in range(20):
            op = make_op(rng, n=int(rng.integers(2, 15)))
            n = op.n
            b = rng.uniform(-1, 1, n)
            t, lam = float(10 ** rng.uniform(0, 3)), float(10 ** rng.uniform(-3, 0))
            coeffs = regularized_solve(op.gram, n * lam, b / t)
            img = RepresenterFunction(op.kernel, op.pts, coeffs)
            from krstab.rkhs import rkhs_norm

            assert rkhs_norm(img) <= noise_operator_bound(
                n, t, lam, float(np.linalg.norm(b))
            ) + 1e-10


class TestShrinkage:
    def test_profile_values_identity_gram(self):
        g = GramMatrix(np.eye(1))
        pairs = shrinkage_profile(g, 0.5, 1.0)
        assert pairs == [(1.0, 0.5 / 1.5)]

    def test_profile_factors_in_unit_interval_and_monotone(self, psd_factory):
        rng = np.random.default_rng(64)
        g = psd_factory(rng, 10)
        pairs = shrinkage_profile(g, 0.2, 10.0)
        factors = [f for _, f in pairs]
        assert all(0.0 < f <= 1.0 for f in factors)
        # eigenvalues descending, so factors ascending
        assert all(a <= b + 1e-15 for a, b in zip(factors, factors[1:]))

    def test_shrinkage_term_matches_noiseless_fit_error(self, instance_factory):
        # with b = 0 the fit-vs-interpolant distance is exactly the shrinkage term
        rng = np.random.default_rng(65)
        from krstab.solver import DataSet, krr_fit, min_norm_interpolant

        spec, pts, g = instance_factory(rng, 1e3)
        vals = rng.uniform(-1, 1, len(pts))
        fbar = min_norm_interpolant(pts, vals, spec, gram_matrix=g)
        for lam in (1e-3, 0.1, 1.0):
            fit = krr_fit(DataSet(pts, vals), lam, spec, gram_matrix=g)
            direct = h_distance(fit.f, fbar)
            term = shrinkage_term(g, shrink_solve(g, fbar.coeffs, lam), lam)
            assert abs(direct - term) <= 1e-8 * (1.0 + term)

    def test_shrinkage_term_monotone_in_lambda(self, instance_factory):
        rng = np.random.default_rng(66)
        spec, pts, g = instance_factory(rng, 1e3)
        beta = rng.uniform(-1, 1, len(pts))
        terms = [
            shrinkage_term(g, shrink_solve(g, beta, lam), lam)
            for lam in (1e-4, 1e-3, 1e-2, 1e-1, 1.0)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(terms, terms[1:]))


class TestDecomposition:
    def test_zero_noise_residual_tiny(self, instance_factory):
        rng = np.random.default_rng(67)
        for _ in range(10):
            spec, pts, g = instance_factory(rng, 1e3)
            vals = rng.uniform(-1, 1, len(pts))
            assert residual(g, vals, np.zeros(len(pts)), 1.0, 0.1) <= 1e-9

    def test_zero_values_exact_match(self):
        rng = np.random.default_rng(68)
        op = make_op(rng)
        b = rng.uniform(-1, 1, op.n)
        assert residual(op.gram, np.zeros(op.n), b, 10.0, 0.1) == 0.0

    def test_random_instances_certify(self, instance_factory):
        rng = np.random.default_rng(69)
        for _ in range(15):
            spec, pts, g = instance_factory(rng, 1e3)
            vals = rng.uniform(-1, 1, len(pts))
            b = rng.uniform(-1, 1, len(pts))
            t = float(10 ** rng.uniform(0, 4))
            lam = float(10 ** rng.uniform(-4, 0))
            assert residual(g, vals, b, t, lam) <= 1e-8

    def test_identity_against_manual_algebra(self):
        # left and right sides recomputed here from scratch
        rng = np.random.default_rng(70)
        op = make_op(rng)
        g = op.gram
        n = g.n
        vals = rng.uniform(-1, 1, n)
        b = rng.uniform(-1, 1, n)
        t, lam = 100.0, 0.01
        alpha = regularized_solve(g, n * lam, vals + b / t)
        beta = pinv_solve(g, vals)
        left = alpha - beta
        right = -n * lam * regularized_solve(g, n * lam, beta) + regularized_solve(
            g, n * lam, b / t
        )
        delta = left - right
        manual = math.sqrt(max(float(delta @ g.entries @ delta), 0.0))
        assert abs(residual(g, vals, b, t, lam) - manual) < 1e-15


class TestEigenConsistency:
    def test_gram_eigenvectors_solve_coefficient_eigenproblem(self):
        # P*P acts on coefficients as G; its eigenpairs are the Gram's
        rng = np.random.default_rng(71)
        op = make_op(rng)
        eig = op.gram.eigen
        for k in range(op.n):
            v = eig.eigenvectors[:, k]
            np.testing.assert_allclose(
                op.gram.entries @ v, eig.eigenvalues[k] * v, atol=1e-10
            )
