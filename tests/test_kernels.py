"""Kernel and Gram matrix behavior: pinned values, brute-force cross-checks,
and the PSD/symmetry/equivariance invariants."""

import math

import numpy as np
import pytest

import krstab.kernels
from krstab.kernels import (
    GramMatrix,
    KernelSpec,
    PointSet,
    eval_kernel,
    gram,
    kappa_upper_bound,
    kernel_diag,
    kernel_matrix,
    rounding_constant,
)
from krstab.linalg import DiagnosticsError

GAUSS_01 = 0.6065306597126334  # exp(-1/2), frozen


def all_kinds():
    return [
        KernelSpec.gaussian(1.0),
        KernelSpec.gaussian(0.4),
        KernelSpec.linear(),
        KernelSpec.polynomial(2, 1.0),
        KernelSpec.polynomial(3, 0.5),
    ]


class TestEvalKernel:
    def test_gaussian_same_point(self):
        assert eval_kernel(KernelSpec.gaussian(1.0), [0.0], [0.0]) == 1.0

    def test_gaussian_unit_gap(self):
        v = eval_kernel(KernelSpec.gaussian(1.0), [0.0], [1.0])
        assert abs(v - GAUSS_01) < 1e-15
        assert abs(v - math.exp(-0.5)) < 1e-15

    def test_linear_dot(self):
        assert eval_kernel(KernelSpec.linear(), [2.0], [3.0]) == 6.0

    def test_polynomial_value(self):
        # (2*1 + 1)^2 = 9
        assert eval_kernel(KernelSpec.polynomial(2, 1.0), [2.0], [1.0]) == 9.0

    def test_symmetry_exact(self):
        rng = np.random.default_rng(10)
        for spec in all_kinds():
            for _ in range(20):
                x, y = rng.normal(size=3), rng.normal(size=3)
                assert eval_kernel(spec, x, y) == eval_kernel(spec, y, x)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            eval_kernel(KernelSpec.linear(), [1.0, 2.0], [1.0])


class TestKernelSpec:
    def test_gaussian_requires_width(self):
        with pytest.raises(ValueError):
            KernelSpec(kind="gaussian")
        with pytest.raises(ValueError):
            KernelSpec(kind="gaussian", width=0.0)

    def test_linear_takes_no_params(self):
        with pytest.raises(ValueError):
            KernelSpec(kind="linear", width=1.0)

    def test_polynomial_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(kind="polynomial", degree=0, offset=1.0)
        with pytest.raises(ValueError):
            KernelSpec(kind="polynomial", degree=2, offset=-1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown"):
            KernelSpec(kind="laplace", width=1.0)

    def test_json_round_trip_exact_keys(self):
        for spec in all_kinds():
            obj = spec.to_json_dict()
            assert KernelSpec.from_json_dict(obj) == spec
        assert KernelSpec.gaussian(1.0).to_json_dict() == {"kind": "gaussian", "width": 1.0}
        assert KernelSpec.linear().to_json_dict() == {"kind": "linear"}
        assert KernelSpec.polynomial(2, 0.5).to_json_dict() == {
            "kind": "polynomial",
            "degree": 2,
            "offset": 0.5,
        }

    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            KernelSpec.from_json_dict({"kind": "linear", "scale": 2.0})


class TestPointSet:
    def test_one_d_input(self):
        p = PointSet([0.0, 1.0, 2.0])
        assert p.points.shape == (3, 1)
        assert len(p) == 3 and p.dim == 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PointSet(np.zeros((0, 1)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PointSet([[np.inf]])

    def test_read_only(self):
        p = PointSet([[1.0]])
        with pytest.raises(ValueError):
            p.points[0, 0] = 2.0


class TestGram:
    def test_single_point_gaussian(self):
        g = gram(KernelSpec.gaussian(1.0), PointSet([[0.0]]))
        np.testing.assert_array_equal(g.entries, [[1.0]])
        assert g.max_diag == 1.0

    def test_linear_two_points(self):
        g = gram(KernelSpec.linear(), PointSet([[0.0], [1.0]]))
        np.testing.assert_array_equal(g.entries, [[0.0, 0.0], [0.0, 1.0]])
        assert g.max_diag == 1.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for spec in all_kinds():
            pts = PointSet(rng.normal(size=(6, 2)))
            g = gram(spec, pts)
            brute = np.array(
                [
                    [eval_kernel(spec, a, b) for b in pts.points]
                    for a in pts.points
                ]
            )
            np.testing.assert_allclose(g.entries, brute, atol=1e-14)

    def test_gaussian_diagonal_exactly_one(self):
        rng = np.random.default_rng(12)
        pts = PointSet(rng.uniform(-50.0, 50.0, size=(20, 3)))
        g = gram(KernelSpec.gaussian(0.7), pts)
        np.testing.assert_array_equal(np.diag(g.entries), np.ones(20))

    def test_entries_exactly_symmetric(self):
        rng = np.random.default_rng(13)
        for spec in all_kinds():
            g = gram(spec, PointSet(rng.normal(size=(10, 2))))
            assert np.array_equal(g.entries, g.entries.T)

    def test_psd_invariant(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            spec = all_kinds()[int(rng.integers(len(all_kinds())))]
            n, d = int(rng.integers(1, 21)), int(rng.integers(1, 5))
            g = gram(spec, PointSet(rng.normal(size=(n, d))))
            assert g.eigen.eigenvalues[-1] >= -1e-10 * n * g.max_diag

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(15)
        pts = rng.normal(size=(8, 2))
        perm = rng.permutation(8)
        for spec in all_kinds():
            g = gram(spec, PointSet(pts)).entries
            gp = gram(spec, PointSet(pts[perm])).entries
            np.testing.assert_array_equal(gp, g[np.ix_(perm, perm)])

    def test_kappa_is_max_diagonal(self):
        rng = np.random.default_rng(16)
        g = gram(KernelSpec.linear(), PointSet(rng.normal(size=(7, 3))))
        assert g.max_diag == float(np.max(np.diag(g.entries)))

    def test_from_raw_entries_mirrors_upper(self):
        m = np.array([[1.0, 0.5], [0.5 + 1e-14, 1.0]])
        g = GramMatrix(m)
        assert g.entries[1, 0] == g.entries[0, 1] == 0.5

    def test_mirror_copies_the_sign_of_zero(self):
        g = GramMatrix(np.array([[1.0, 0.0], [-0.0, 1.0]]))
        assert g.entries[1, 0].tobytes() == np.float64(0.0).tobytes()

    def test_symmetric_entries_are_copied(self):
        m = np.array([[1.0, 0.5], [0.5, 1.0]])
        g = GramMatrix(m)
        m[0, 1] = 9.0
        assert g.entries[0, 1] == 0.5

    def test_rejects_asymmetric_entries(self):
        with pytest.raises(ValueError, match="symmetric"):
            GramMatrix(np.array([[1.0, 0.5], [0.1, 1.0]]))

    def test_indefinite_matrix_fails_diagnostics(self):
        g = GramMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues 3, -1
        with pytest.raises(DiagnosticsError, match="positive semidefinite"):
            _ = g.eigen

    def test_eigen_is_cached(self):
        g = gram(KernelSpec.gaussian(1.0), PointSet([[0.0], [1.0]]))
        assert g.eigen is g.eigen


class TestDiagHelpers:
    def test_kernel_diag_matches_eval(self):
        rng = np.random.default_rng(17)
        pts = rng.normal(size=(9, 2))
        for spec in all_kinds():
            diag = kernel_diag(spec, pts)
            expect = [eval_kernel(spec, p, p) for p in pts]
            np.testing.assert_allclose(diag, expect, rtol=1e-14)

    def test_kappa_upper_bound_dominates_box(self):
        rng = np.random.default_rng(18)
        lo, hi = np.array([-1.0, 0.5]), np.array([2.0, 3.0])
        pts = rng.uniform(lo, hi, size=(200, 2))
        for spec in all_kinds():
            bound = kappa_upper_bound(spec, lo, hi)
            assert np.max(kernel_diag(spec, pts)) <= bound + 1e-12

    def test_kappa_bound_attained_at_corner(self):
        lo, hi = np.array([-2.0]), np.array([1.0])
        assert kappa_upper_bound(KernelSpec.linear(), lo, hi) == 4.0
        assert kappa_upper_bound(KernelSpec.gaussian(0.3), lo, hi) == 1.0


def test_kernel_matrix_cross_shape():
    rng = np.random.default_rng(19)
    a, b = rng.normal(size=(4, 2)), rng.normal(size=(6, 2))
    m = kernel_matrix(KernelSpec.gaussian(0.8), a, b)
    assert m.shape == (4, 6)
    assert m[2, 3] == eval_kernel(KernelSpec.gaussian(0.8), a[2], b[3])


@pytest.mark.parametrize("d", range(1, 10))
@pytest.mark.parametrize("block_bytes", [None, 4096])
def test_gaussian_matrix_bits_match_the_broadcast(monkeypatch, d, block_bytes):
    # Every squared distance has the bits of the broadcast differences'
    # squares summed left to right, at coordinates from 1e-8 to 1e8 in
    # magnitude, signed zeros and points that coincide.  A single column
    # takes its differences by subtraction and a wider matrix by matrix
    # product.  Below 8 coordinates the oracle has the bits of numpy's own
    # reduction; from 8 on numpy sums pairwise, and the kernel still sums
    # left to right.
    if block_bytes is not None:
        monkeypatch.setattr(krstab.kernels, "_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(40 + d)
    # A cross block, a square block, pivot columns at two sizes, and a row.
    for n, m in [(70, 65), (128, 128), (90, 1), (128, 1), (1, 90)]:
        a = rng.uniform(-3.0, 3.0, (n, d)) * 10.0 ** rng.integers(-8, 9, (n, 1))
        b = rng.uniform(-3.0, 3.0, (m, d)) * 10.0 ** rng.integers(-8, 9, (m, 1))
        a[::3, 0], b[::4, -1] = 0.0, -0.0
        b[::5] = a[rng.integers(0, n, b[::5].shape[0])]
        sq = (a[:, None, :] - b[None, :, :]) ** 2
        d2 = sum(sq[..., k] for k in range(d))
        for width in (0.7, 1e-6, 1e6):
            spec = KernelSpec.gaussian(width)
            expect = np.exp(-d2 / (2.0 * width**2))
            got = kernel_matrix(spec, a, b)
            assert np.array_equal(got.view(np.int64), expect.view(np.int64))
            assert np.array_equal(kernel_matrix(spec, b, a).view(np.int64), got.T.view(np.int64))
            assert np.all(np.diag(kernel_matrix(spec, a, a)) == 1.0)
            assert np.all(got[np.all(a[:, None, :] == b[None, :, :], axis=-1)] == 1.0)


UNIT_ROUNDOFF = 2.0**-53
# The oracles below round each operation at 2^-64, so they need an x87
# extended long double; where long double is plain double they prove nothing.
needs_long_double = pytest.mark.skipif(
    np.finfo(np.longdouble).nmant < 63, reason="long double is not extended precision"
)


def long_double_kernel(spec, a, b):
    """K(a_i, b_j) in long double, from the same double inputs."""
    a, b = a.astype(np.longdouble), b.astype(np.longdouble)
    if spec.kind == "gaussian":
        d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
        return np.exp(-d2 / (2 * np.longdouble(spec.width) ** 2))
    dot = np.sum(a[:, None, :] * b[None, :, :], axis=-1)
    if spec.kind == "linear":
        return dot
    return (dot + np.longdouble(spec.offset)) ** spec.degree


@needs_long_double
@pytest.mark.parametrize("d", [1, 2, 4, 7, 8, 12])
def test_entries_within_the_rounding_bound(d):
    # Every computed entry is within c u sqrt(K(x, x) K(y, y)) of the exact
    # kernel value, at coordinates of magnitude 1e-8 to 1e8, at coincident
    # points and at polynomial degrees up to 10; at d = 8 and 12 the gaussian
    # sums more terms left to right than numpy's reduction does.  The
    # oracle's own rounding, under 2^-10 of the bound, is allowed for.
    rng = np.random.default_rng(70 + d)
    moderate = rng.uniform(0.0, 4.0, (40, d))
    mixed = rng.uniform(-3.0, 3.0, (40, d)) * 10.0 ** rng.integers(-8, 9, (40, 1))
    mixed[::3, 0] = 0.0
    specs = [KernelSpec.gaussian(w) for w in (0.8, 1e-6, 1e6)] + [KernelSpec.linear()]
    specs += [KernelSpec.polynomial(p, c) for p in (1, 2, 3, 5, 10) for c in (0.0, 1.0)]
    for a in (moderate, mixed):
        b = np.vstack([a[::4], rng.permutation(a)[:20] * rng.uniform(0.5, 2.0, (20, 1))])
        for spec in specs:
            exact = long_double_kernel(spec, a, b)
            diag_a = np.diag(long_double_kernel(spec, a, a))
            diag_b = np.diag(long_double_kernel(spec, b, b))
            scale = np.sqrt(diag_a[:, None] * diag_b[None, :])
            err = np.abs(kernel_matrix(spec, a, b) - exact)
            bound = (1 + 2.0**-10) * rounding_constant(spec, d) * UNIT_ROUNDOFF * scale
            assert np.all(err <= bound), (spec, float(np.max(err / bound)))


@needs_long_double
def test_exp_and_power_errors_within_the_assumed_bounds():
    # numpy's SIMD exp and power are not correctly rounded; the rounding bound
    # assumes exp within _EXP_ERROR u and power within 2 u, relative.
    rng = np.random.default_rng(80)
    t = np.concatenate([rng.uniform(lo, 0.0, 100_000) for lo in (-708.0, -40.0, -1.0, -1e-8)])
    exact = np.exp(t.astype(np.longdouble))
    err = np.abs(np.exp(t) - exact) / exact
    assert np.max(err) <= krstab.kernels._EXP_ERROR * UNIT_ROUNDOFF
    x = rng.uniform(-3.0, 3.0, 100_000) * 10.0 ** rng.integers(-8, 9, 100_000)
    for p in range(3, 11):
        exact = x.astype(np.longdouble) ** p
        assert np.max(np.abs(x**p - exact) / np.abs(exact)) <= 2 * UNIT_ROUNDOFF
