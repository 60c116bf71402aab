"""Kernel and Gram matrix behavior: pinned values, brute-force cross-checks,
and the PSD/symmetry/equivariance invariants."""

import math

import numpy as np
import pytest
from oracle import long_double_kernel, needs_long_double

import krstab.cli
import krstab.kernels
from krstab.kernels import (
    GramMatrix,
    KernelSpec,
    PointSet,
    column_evaluator,
    eval_kernel,
    gram,
    kappa_upper_bound,
    kernel_diag,
    kernel_matrix,
    rounding_constant,
    sample_kappa,
)
from krstab.experiments import NoiseProcess, run_thm2
from krstab.linalg import DiagnosticsError
from krstab.operators import EvaluationOperator, ker_p_sample
from krstab.rkhs import RepresenterFunction, evaluate
from krstab.solver import DataSet
from krstab.stability import Schedule

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

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_nonfinite_point_is_refused_by_kernel_matrix(self, x):
        # eval_kernel reads both points as kernel_matrix reads points, so a
        # non-finite one is refused by the same name.
        with pytest.raises(ValueError, match="points must be finite"):
            eval_kernel(KernelSpec.gaussian(1.0), [x], [0.0])


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

    @pytest.mark.parametrize(
        "make",
        [
            lambda: KernelSpec.polynomial(2.5, 0.0),
            lambda: KernelSpec.polynomial(True, 0.0),
            lambda: KernelSpec.polynomial(2, True),
            lambda: KernelSpec.gaussian(True),
            lambda: KernelSpec("polynomial", degree=True, offset=1.0),
            lambda: KernelSpec("polynomial", degree=2, offset=False),
            lambda: KernelSpec("gaussian", width=True),
            lambda: KernelSpec("gaussian", width=np.True_),
            lambda: KernelSpec.gaussian(np.True_),
        ],
        ids=["factory-fractional-degree", "factory-bool-degree", "factory-bool-offset",
             "factory-bool-width", "bool-degree", "bool-offset", "bool-width",
             "numpy-bool-width", "factory-numpy-bool-width"],
    )
    def test_factories_refuse_what_the_constructor_refuses(self, make):
        # A factory passes its fields to the constructor's checks as given:
        # a fractional degree is not truncated and a bool is not read as 1.
        with pytest.raises(ValueError, match="degree|must be a finite number"):
            make()

    def test_integral_degree_is_stored_as_an_int(self):
        spec = KernelSpec("polynomial", degree=2.0, offset=0.0)
        assert spec == KernelSpec.polynomial(2, 0)
        assert spec.to_json_dict() == KernelSpec.polynomial(2, 0).to_json_dict()
        assert type(spec.degree) is int and type(KernelSpec.polynomial(3.0, 1).degree) is int

    @pytest.mark.parametrize("width", [1e-300, 1e-162, 1e154, 1e300, 1.7e308])
    def test_gaussian_width_whose_divisor_leaves_the_float_range(self, width):
        # 2 * width^2 underflows to 0, overflows to inf, or (from 1e155 on)
        # makes float ** raise OverflowError.
        with pytest.raises(ValueError, match=r"2 \* width\^2 to be a positive finite float"):
            KernelSpec.gaussian(width)

    @pytest.mark.parametrize("width", [1e-161, 1e-150, 9e153])
    def test_gaussian_width_with_a_positive_finite_divisor(self, width):
        assert kernel_matrix(KernelSpec.gaussian(width), [[0.0]], [[0.0]])[0, 0] == 1.0

    def test_json_exact_keys(self):
        assert KernelSpec.gaussian(1.0).to_json_dict() == {"kind": "gaussian", "width": 1.0}
        assert KernelSpec.linear().to_json_dict() == {"kind": "linear"}
        assert KernelSpec.polynomial(2, 0.5).to_json_dict() == {
            "kind": "polynomial",
            "degree": 2,
            "offset": 0.5,
        }

    def test_from_json_rejects_unknown_keys(self):
        # a kernel object is read from JSON by the CLI's kernel parser
        with pytest.raises(ValueError, match="config key kernel/scale: unknown key"):
            krstab.cli._kernel({"kind": "linear", "scale": 2.0}, "kernel")


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

    # The polynomial's (1e200 + 1)^2 overflows in Python floats, the linear
    # kernel's 1e200^2 in numpy.
    @pytest.mark.parametrize(
        "spec,hi",
        [(KernelSpec.polynomial(2, 1.0), 1e100), (KernelSpec.linear(), 1e200)],
        ids=["polynomial", "linear"],
    )
    def test_kappa_bound_outside_the_float_range_names_it(self, spec, hi):
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="^kappa_upper_bound = .* leaves the float range"):
                kappa_upper_bound(spec, [0.0], [hi])


EXPANSION = RepresenterFunction(KernelSpec.gaussian(1.0), PointSet([[0.0], [1.0]]), [1.0, 2.0])


@pytest.mark.parametrize(
    "call",
    [
        lambda: evaluate(EXPANSION, [math.nan]),
        lambda: evaluate(EXPANSION, [math.nan, 0.5]),
        lambda: evaluate(EXPANSION, [math.inf]),
        lambda: kernel_matrix(KernelSpec.gaussian(1.0), [[math.nan]], [[0.0]]),
        lambda: kernel_matrix(KernelSpec.linear(), [[0.0]], [[-math.inf]]),
        lambda: kernel_diag(KernelSpec.polynomial(2, 1.0), [[math.nan]]),
        lambda: sample_kappa(KernelSpec.linear(), [[math.nan, 1.0]]),
    ],
    ids=[
        "evaluate-nan",
        "evaluate-batch-nan",
        "evaluate-inf",
        "kernel_matrix-nan",
        "kernel_matrix-minus-inf",
        "kernel_diag-nan",
        "sample_kappa-nan",
    ],
)
def test_raw_points_must_be_finite(call):
    # A raw array is checked where it enters a kernel, as a PointSet is when
    # it is built; neither value nor nan comes back.
    with pytest.raises(ValueError, match="points must be finite"):
        call()


@pytest.mark.parametrize(
    "raw",
    [np.empty((0, 2)), np.empty((3, 0)), np.zeros((2, 2, 2))],
    ids=["no-rows", "no-coordinates", "3-d"],
)
@pytest.mark.parametrize(
    "call",
    [
        lambda raw: kernel_matrix(KernelSpec.gaussian(1.0), raw, raw),
        lambda raw: kernel_matrix(KernelSpec.linear(), [[0.0, 1.0]], raw),
        lambda raw: kernel_diag(KernelSpec.polynomial(2, 1.0), raw),
    ],
    ids=["kernel_matrix", "kernel_matrix-second", "kernel_diag"],
)
def test_raw_points_take_the_point_set_shape_check(call, raw):
    # Raw points are read as a PointSet reads them: no (0, m) matrix, and no
    # entries exp(0) = 1 for points without coordinates.
    with pytest.raises(ValueError, match=r"points must form an \(n, d\) array"):
        call(raw)


def test_point_set_call_sites_accept_raw_points():
    # Every function that takes a point set reads raw points as PointSet
    # does, 1-D as points on the line, with the PointSet's own results; a
    # PointSet is kept as the same object.
    spec = KernelSpec.gaussian(0.8)
    raw = np.linspace(0.0, 2.0, 8)
    pts = PointSet(raw)
    coeffs = np.linspace(-1.0, 1.0, 8)
    assert gram(spec, raw).entries.tobytes() == gram(spec, pts).entries.tobytes()
    assert RepresenterFunction(spec, pts, coeffs).anchors is pts
    for p in (
        RepresenterFunction(spec, raw, coeffs).anchors,
        DataSet(raw, coeffs).pts,
        EvaluationOperator(spec, raw).pts,
    ):
        assert p.points.tobytes() == pts.points.tobytes()
    op = EvaluationOperator(spec, pts)
    h, twin = (ker_p_sample(op, extra, seed=3) for extra in ([2.5, 3.0], PointSet([2.5, 3.0])))
    assert h.anchors.points.tobytes() == twin.anchors.points.tobytes()
    assert h.coeffs.tobytes() == twin.coeffs.tobytes()
    target = RepresenterFunction(spec, [[0.5], [1.5]], [1.0, -0.5])
    args = (target, NoiseProcess("uniform", 0.5), Schedule(0.5, 1.0), [1, 10], 2, 17)
    rows, twin_rows = (run_thm2(p, *args).rows for p in (raw, pts))
    assert [r.h_distance for r in rows] == [r.h_distance for r in twin_rows]


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
    # magnitude, signed zeros and points that coincide.  Every shape takes
    # its differences by matrix product, so the (90, 1) and (128, 1) pivot
    # columns check the product form's single columns against the oracle.
    # Below 8 coordinates the oracle has the bits of numpy's own reduction;
    # from 8 on numpy sums pairwise, and the kernel still sums left to right.
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



@pytest.mark.parametrize("d", [1, 2, 4, 8])
@pytest.mark.parametrize("width", [1e-6, 0.7, 1e6])
def test_column_evaluator_has_the_bits_of_kernel_matrix_columns(d, width):
    # The thm1 low-rank route reads its pivot columns from the evaluator, so
    # each must be the kernel_matrix column bit for bit, at coordinates from
    # 1e-8 to 1e8 in magnitude, zeros, and points that coincide.
    rng = np.random.default_rng(70 + d)
    n = 90
    x = rng.uniform(-3.0, 3.0, (n, d)) * 10.0 ** rng.integers(-8, 9, (n, 1))
    x[::7] = x[2]
    x[::3, 0] = 0.0
    pts, spec = PointSet(x), KernelSpec.gaussian(width)
    column = column_evaluator(spec, pts)
    for p in (0, 2, 7, 44, n - 1):
        expect = kernel_matrix(spec, pts.points, pts.points[p : p + 1])[:, 0]
        assert np.array_equal(column(p).view(np.int64), expect.view(np.int64))


@pytest.mark.parametrize("spec", all_kinds(), ids=lambda s: s.kind)
def test_column_evaluator_of_every_kind_is_a_gram_column(spec):
    rng = np.random.default_rng(12)
    pts = PointSet(rng.uniform(-2.0, 2.0, (40, 3)))
    column = column_evaluator(spec, pts)
    g = kernel_matrix(spec, pts, pts)
    for p in (0, 17, 39):
        got = column(p)
        assert got.shape == (40,)
        np.testing.assert_array_equal(got, kernel_matrix(spec, pts, pts.points[p : p + 1])[:, 0])
        np.testing.assert_allclose(got, g[:, p], rtol=1e-14)


UNIT_ROUNDOFF = 2.0**-53


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


class TestEntryLimit:
    @pytest.mark.parametrize("spec", all_kinds(), ids=lambda s: s.kind)
    def test_limit_is_inclusive_and_checked_before_any_work(self, monkeypatch, spec):
        monkeypatch.setattr(krstab.kernels, "MAX_ENTRIES", 6)
        assert kernel_matrix(spec, np.zeros((2, 1)), np.ones((3, 1))).shape == (2, 3)
        with pytest.raises(DiagnosticsError, match=r"a 7 x 1 kernel matrix needs 56 bytes"):
            kernel_matrix(spec, np.zeros((7, 1)), np.ones((1, 1)))
        with pytest.raises(DiagnosticsError, match="limit of 6 entries"):
            gram(spec, PointSet(np.zeros((3, 1))))

    def test_shipped_limit_refuses_without_allocating(self):
        # 2^14 x (2^13 + 1) entries, 1 GiB + 128 KiB: one past 2^27.
        a, b = np.zeros((1 << 14, 1)), np.zeros(((1 << 13) + 1, 1))
        assert krstab.kernels.MAX_ENTRIES == 1 << 27
        with pytest.raises(DiagnosticsError, match=r"needs 1073872896 bytes"):
            kernel_matrix(KernelSpec.gaussian(1.0), a, b)
