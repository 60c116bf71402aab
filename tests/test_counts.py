"""The one reading of counts, of real numbers and of numeric arrays.

Every library entry point that takes a sample size, count, index or seed
reads it through ``linalg._as_count``: each refuses a bool, a non-number, a
fraction, nan, inf, an int beyond the float range and a value below its
floor with a ValueError naming the argument, and reads an integral number
as the int it equals.  A seed is any integer, read modulo 2**64.  Every
scalar real value an entry point takes (lam, t, eps, a kernel width, ...)
is read through ``linalg._as_real``: each refuses a bool, a non-number,
nan, inf, an int beyond the float range and a value outside its bound, and
computes from an int or a numpy float what it computes from the equal
float.  Every numeric array an entry point takes
(points, labels, coefficients, a right-hand side, Gram entries, a box, an
array of lam, t or shifts) is read through ``linalg._as_floats``: each
refuses a bool entry, a non-number entry, nan, inf, an int beyond the
float range and entries of unequal shapes, and where the array must have
one row per point, a wrong length and an (n, 0) block, and computes from
an int list what it computes from the equal float array.  Property tests
feed arbitrary scalars to every reader's entry points, alone and as the
entries of arrays; CI reruns this file with ``--hypothesis-profile=ci`` for
a wider search.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from krstab.experiments import (
    DataDistribution,
    ExperimentReport,
    NoiseProcess,
    run_thm1,
    run_thm2,
    sample_dataset,
)
from krstab.kernels import (
    GramMatrix,
    KernelSpec,
    PointSet,
    eval_kernel,
    gram,
    kappa_upper_bound,
    kernel_matrix,
)
from krstab.linalg import DiagnosticsError, Frozen, low_rank_solve, pinv_solve, regularized_solve
from krstab.operators import (
    EvaluationOperator,
    apply_p_star,
    decomposition_residual,
    filter_gain_bound,
    filter_gains,
    filter_max,
    ker_p_sample,
    noise_operator_bound,
    shrinkage_profile,
    shrinkage_term,
)
from krstab.rkhs import RepresenterFunction, combine, cross_term_distance, gram_norm
from krstab.rng import SplitMix64, mix64
from krstab.solver import (
    DataSet,
    closeness_certificate,
    krr_fit,
    min_norm_interpolant,
    regularized_risk,
)
from krstab.stability import (
    Schedule,
    StabilityParams,
    eps_for_target,
    sigma_admissible_ls,
    stability_probability,
    stability_probability_combined,
    variance_radius,
)

GAUSS = KernelSpec.gaussian(0.7)
TARGET = RepresenterFunction(GAUSS, PointSet([[0.5], [1.5]]), np.array([1.0, -0.5]))
NOISE = NoiseProcess("uniform", 0.25)
DIST = DataDistribution([0.0], [2.0], TARGET, NOISE)
SCHEDULE = Schedule(1.0, 0.25)
BELOW = object()  # stands for one less than the entry point's smallest count

# name -> (call with the count, the argument's name, the smallest count
# taken, or None for a seed, which may be any integer).
ENTRY_POINTS = {
    "sample_dataset": (lambda v: sample_dataset(DIST, v, 3), "n", 1),
    "sample_x": (lambda v: DIST.sample_x(v, 3), "n", 1),
    "NoiseProcess.sample": (lambda v: NoiseProcess("uniform", 0.5).sample(v, 3), "n", 0),
    "trials": (lambda v: run_thm1(DIST, SCHEDULE, [4], trials=v, seed=0), "trials", 1),
    "n_grid": (lambda v: run_thm1(DIST, SCHEDULE, [v], trials=1, seed=0), "n_grid entry", 1),
    "SplitMix64.words": (lambda v: SplitMix64(1).words(v), "k", 0),
    "mix64": (lambda v: mix64(1, v), "index", 0),
    "StabilityParams": (lambda v: StabilityParams(1.0, 1.0, 1.0, v, 0.1, 0.5), "n", 1),
    "KernelSpec": (lambda v: KernelSpec("polynomial", degree=v, offset=1.0), "degree", 1),
    "filter_gain_bound": (lambda v: filter_gain_bound(v, 0.1), "n", 1),
    "filter_max": (lambda v: filter_max(v, 0.1), "n", 1),
    "noise_operator_bound": (lambda v: noise_operator_bound(v, 2.0, 0.1, 1.0), "n", 1),
    "SplitMix64.seed": (lambda v: SplitMix64(v).words(3), "seed", None),
    "mix64.seed": (lambda v: mix64(v, 5), "seed", None),
    "sample_x.seed": (lambda v: DIST.sample_x(4, v), "seed", None),
    "run_thm1.seed": (lambda v: run_thm1(DIST, SCHEDULE, [4], trials=2, seed=v), "seed", None),
}

PTS = PointSet([[0.0], [1.0], [2.5]])
G = gram(GAUSS, PTS)
DATA = DataSet(PTS, [1.0, 0.5, -0.25])
FITS = (krr_fit(DATA, 0.1, GAUSS, gram_matrix=G), krr_fit(DATA, 0.2, GAUSS, gram_matrix=G))
RISKS = (lambda f: regularized_risk(f, DATA, 0.1), lambda f: regularized_risk(f, DATA, 0.2))
PARAMS = (1.0, 1.0, 1.0, 10, 0.1, 0.5)  # c, kappa, m, n, lam, eps


def _params(i, v):
    """The failure probability of PARAMS with field ``i`` set to ``v``."""
    return stability_probability_combined(StabilityParams(*PARAMS[:i], v, *PARAMS[i + 1 :]))


# name -> (call with the value, the argument's name, the bound it must meet:
# "> 0", ">= 0" or "" for any finite number).  21 entry points, 34 values.
REAL_VALUES = {
    "filter_gains": (lambda v: filter_gains(G, v), "lam", "> 0"),
    "filter_gain_bound": (lambda v: filter_gain_bound(4, v), "lam", "> 0"),
    "filter_max": (lambda v: filter_max(4, v), "lam", "> 0"),
    "noise_operator_bound.t": (lambda v: noise_operator_bound(4, v, 0.1, 1.0), "t", "> 0"),
    "noise_operator_bound.lam": (lambda v: noise_operator_bound(4, 2.0, v, 1.0), "lam", "> 0"),
    "noise_operator_bound.b_norm": (
        lambda v: noise_operator_bound(4, 2.0, 0.1, v), "b_norm", ">= 0"
    ),
    "shrinkage_profile.lam": (lambda v: shrinkage_profile(G, v, 3), "lam", "> 0"),
    "shrinkage_profile.scale": (lambda v: shrinkage_profile(G, 0.1, v), "scale", "> 0"),
    "regularized_risk": (lambda v: regularized_risk(FITS[0], DATA, v), "lam", "> 0"),
    "closeness_certificate": (lambda v: closeness_certificate(*RISKS, *FITS, v), "eps", "> 0"),
    **{
        f"StabilityParams.{name}": (lambda v, i=i: _params(i, v), name, "> 0")
        for i, name in ((0, "c"), (1, "kappa"), (2, "m"), (4, "lam"), (5, "eps"))
    },
    "sigma_admissible_ls": (sigma_admissible_ls, "x_max", "> 0"),
    "stability_probability": (
        lambda v: stability_probability(StabilityParams(*PARAMS), v), "beta", ">= 0"
    ),
    "variance_radius.eps": (lambda v: variance_radius(v, 0.1), "eps", "> 0"),
    "variance_radius.lam": (lambda v: variance_radius(0.5, v), "lam", "> 0"),
    "eps_for_target.eta": (lambda v: eps_for_target(v, 0.1), "eta", "> 0"),
    "eps_for_target.lam": (lambda v: eps_for_target(0.2, v), "lam", "> 0"),
    "Schedule.lambda0": (lambda v: Schedule(v, 0.25).value(4), "lambda0", "> 0"),
    "Schedule.exponent": (lambda v: Schedule(1.0, v).value(4), "exponent", ""),
    "Schedule.value": (SCHEDULE.value, "schedule index", "> 0"),
    "NoiseProcess.b_max": (lambda v: NoiseProcess("uniform", v).sample(5, 3), "b_max", ">= 0"),
    "NoiseProcess.sd": (
        lambda v: NoiseProcess("truncated_gaussian", 1.0, v).sample(5, 3), "sd", "> 0"
    ),
    "eta": (lambda v: run_thm1(DIST, SCHEDULE, [4], trials=2, seed=0, eta=v), "eta", "> 0"),
    "t_grid": (
        lambda v: run_thm2(PTS, TARGET, NOISE, SCHEDULE, [v], trials=2, seed=0),
        "t_grid entry",
        "> 0",
    ),
    "KernelSpec.width": (
        lambda v: kernel_matrix(KernelSpec("gaussian", width=v), PTS, PTS), "width", "> 0"
    ),
    "KernelSpec.offset": (
        lambda v: kernel_matrix(KernelSpec("polynomial", degree=2, offset=v), PTS, PTS),
        "offset",
        ">= 0",
    ),
    "low_rank_solve.shift": (lambda v: low_rank_solve(FACTOR, v, [1.0, 2.0, -1.0]), "shift", "> 0"),
    "combine.a": (lambda v: combine(TARGET, TARGET, v, 0.5).coeffs, "a", ""),
    "combine.b": (lambda v: combine(TARGET, TARGET, 0.5, v).coeffs, "b", ""),
    "cross_term_distance.g_sq": (lambda v: _distance(g_sq=v), "g_sq", ">= 0"),
}
# Values whose absence (None) keeps its kind's "requires ..." message.
OPTIONAL = {"NoiseProcess.sd", "KernelSpec.width", "KernelSpec.offset"}
NOT_REAL = {
    "bool": True,
    "numpy-bool": np.True_,
    "string": "1",
    "none": None,
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "beyond-float": 10**400,
}
OUTSIDE = {"> 0": 0, ">= 0": -1}


def _bits(x):
    """What a result is made of, down to array bytes and number types, so
    two results compare equal only when they are the same."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, tuple):
        return tuple(_bits(v) for v in x)
    if isinstance(x, ExperimentReport):
        return x.to_csv_text()
    if isinstance(x, Frozen):
        return {key: _bits(value) for key, value in vars(x).items()}
    return type(x), x


def _value_bits(x):
    """:func:`_bits` with every scalar number read as a float.  A real value
    is kept in the type it was given (an int t echoes as an int), so a call
    with an int or a numpy float is compared with the float call number by
    number, bit for bit."""
    if isinstance(x, ExperimentReport):
        return _value_bits([vars(row) for row in x.rows]), _value_bits(x.metadata)
    if isinstance(x, Frozen):
        x = vars(x)
    if isinstance(x, dict):
        return {key: _value_bits(value) for key, value in x.items()}
    if isinstance(x, (list, tuple)):
        return [_value_bits(v) for v in x]
    if isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool):
        return float(x).hex()
    return _bits(x)


# A seed has no floor to go below, and a missing degree (None) keeps
# KernelSpec's "requires" message.
COUNT_CASES = [
    pytest.param(entry, bad, id=f"{entry}-{bad_id}")
    for entry, (_, _, low) in ENTRY_POINTS.items()
    for bad_id, bad in {
        "bool": True,
        "numpy-bool": np.True_,
        "fraction": 2.5,
        "nan": math.nan,
        "inf": math.inf,
        "beyond-float": 10**400,
        "below": BELOW,
        "string": "2",
        "none": None,
    }.items()
    if not (bad is BELOW and low is None) and not (bad is None and entry == "KernelSpec")
]


@pytest.mark.parametrize("entry,bad", COUNT_CASES)
def test_refuses_what_is_not_a_count(entry, bad):
    # A bool is an int to Python, and a fraction would reach rng's ``&`` as
    # a TypeError or be used as a size, so each is refused by name here.
    call, name, low = ENTRY_POINTS[entry]
    value = low - 1 if bad is BELOW else bad
    # KernelSpec's finite-number check names a bool, nan, inf or string degree first.
    with pytest.raises(ValueError, match=rf"^(kernel )?{re.escape(name)} must be"):
        call(value)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_reads_an_integral_number_as_an_int(entry):
    call, _, low = ENTRY_POINTS[entry]
    for count in (-1 if low is None else low, 3):
        expected = _bits(call(count))
        assert _bits(call(float(count))) == expected
        assert _bits(call(np.int64(count))) == expected


def test_a_seed_is_read_modulo_2_to_the_64():
    assert mix64(-1, 0) == mix64(2**64 - 1, 0) == mix64(2**128 - 1, 0)
    assert SplitMix64(-1).next_u64() == SplitMix64(np.uint64(2**64 - 1)).next_u64()
    report = run_thm1(DIST, SCHEDULE, [4], trials=1, seed=np.int64(5))
    assert type(report.metadata["seed"]) is int and report.metadata["seed"] == 5


def test_refusal_messages():
    with pytest.raises(ValueError, match=r"^index must be a nonnegative integer, got -1$"):
        mix64(1, -1)
    with pytest.raises(ValueError, match=r"^n must be a positive integer, got True$"):
        sample_dataset(DIST, True, 3)
    with pytest.raises(ValueError, match=r"^n_grid must be nonempty$"):
        run_thm1(DIST, SCHEDULE, [], trials=1, seed=0)


def test_seed_and_real_refusal_messages():
    with pytest.raises(ValueError, match=r"^seed must be an integer, got 2.5$"):
        SplitMix64(2.5)
    with pytest.raises(ValueError, match=r"^lam must be a finite number, got True$"):
        filter_max(4, True)
    with pytest.raises(ValueError, match=r"^b_norm must be nonnegative, got -1$"):
        noise_operator_bound(4, 2.0, 0.1, -1)
    with pytest.raises(ValueError, match=r"^kernel width must be positive, got 0$"):
        KernelSpec("gaussian", width=0)
    with pytest.raises(ValueError, match=r"^t_grid must be nonempty$"):
        run_thm2(PTS, TARGET, NOISE, SCHEDULE, [], trials=1, seed=0)


REAL_CASES = [
    pytest.param(entry, bad, id=f"{entry}-{bad_id}")
    for entry, (_, _, bound) in REAL_VALUES.items()
    for bad_id, bad in (*NOT_REAL.items(), ("outside", OUTSIDE.get(bound)))
    if not (bad_id == "outside" and bound == "")
]


@pytest.mark.parametrize("entry,bad", REAL_CASES)
def test_refuses_what_is_not_a_real_number(entry, bad):
    call, name, _ = REAL_VALUES[entry]
    if bad is None and entry in OPTIONAL:
        message = rf"requires {name} "  # a value its kind needs is missing
    else:
        message = rf"^(kernel )?{re.escape(name)} must be"
    with pytest.raises(ValueError, match=message):
        call(bad)


@pytest.mark.parametrize("entry", REAL_VALUES)
def test_reads_an_int_or_numpy_float_as_the_equal_float(entry):
    call = REAL_VALUES[entry][0]
    expected = _value_bits(call(2.0))
    assert _value_bits(call(2)) == expected
    assert _value_bits(call(np.float64(2.0))) == expected


@pytest.mark.parametrize(
    "lam",
    [True, np.True_, [True, 0.1], [0.1, np.True_], np.array([True, True])],
    ids=["bool", "numpy-bool", "list-entry", "numpy-bool-entry", "bool-array"],
)
def test_krr_fit_refuses_a_bool_lam(lam):
    # A float array reads True as 1: the fit would use lam = 1.
    labels = np.array([[1.0, 0.0], [0.5, 1.0], [-0.25, 0.5]])
    data = DATA if np.ndim(lam) == 0 else DataSet(PTS, labels)
    with pytest.raises(ValueError, match=r"^lam must not be or hold a bool"):
        krr_fit(data, lam, GAUSS)


@pytest.mark.parametrize("shift", [True, np.array([True, False])], ids=["bool", "bool-array"])
def test_regularized_solve_refuses_a_bool_shift(shift):
    with pytest.raises(ValueError, match=r"^shift must not be or hold a bool"):
        regularized_solve(G, shift, np.ones((3, 2)))


# Scalars of every kind a caller might pass: floats with nan, infinities and
# subnormals, ints beyond the float and uint64 ranges, bools, numpy
# scalars, strings and None.
SCALARS = st.one_of(
    st.floats(allow_subnormal=True),
    st.integers(),
    st.sampled_from([10**400, -(10**400), 2**64, -(2**63) - 1, 5e-324, 1.7e308]),
    st.booleans(),
    st.sampled_from([np.True_, np.False_]),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.text(max_size=3),
    st.none(),
)
READERS = {**{f"real:{k}": v[0] for k, v in REAL_VALUES.items()}, **{
    f"count:{k}": v[0] for k, v in ENTRY_POINTS.items() if k.endswith(".seed")
}}


@settings(
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(reader=st.sampled_from(sorted(READERS)), value=SCALARS)
def test_any_scalar_is_read_or_refused_by_name(reader, value):
    # Run as the CLI runs: a numpy overflow raises FloatingPointError.
    # Anything but a result or a ValueError, DiagnosticsError or
    # FloatingPointError (a TypeError, OverflowError or ZeroDivisionError)
    # is an input the readers let through.
    with np.errstate(all="raise"):
        try:
            READERS[reader](value)
        except (ValueError, DiagnosticsError, FloatingPointError):
            pass


OP = EvaluationOperator(GAUSS, PTS)
FACTOR = np.array([[1.0, 0.0], [0.5, 0.25], [0.0, 1.0]])  # an (n, r) low-rank factor
COLUMNS = np.array([[1.0, 2.0], [0.5, -1.0], [-0.25, 0.5]])  # an (n, k) block
BLOCK_DATA = DataSet(PTS, COLUMNS)
POLY = KernelSpec.polynomial(2, 1.0)


def _residual(t=(10, 20), lam=(1, 2), beta=(1, 2, -1)):
    return decomposition_residual(G, COLUMNS, beta, COLUMNS, COLUMNS, t, lam)


def _distance(coeffs=(0, 0, 0), product=(0, 0, 0), values=(0, 0, 0), g_sq=4):
    # Zero companions keep the squared distance at g_sq whatever the array
    # under test holds: an arbitrary gram_product is no Gram matrix's
    # product, and the squared distance it gives may be negative, which the
    # library flags with a warning.
    return cross_term_distance(coeffs, product, values, g_sq)


# name -> (call with the array, the argument's name, an int-valued array
# as nested lists, and the rows it must have, or None where it has no
# vector-or-block rule).  Each call returns an array or a float.
ARRAY_VALUES = {
    "PointSet": (lambda v: PointSet(v).points, "points", [[0], [1], [3]], None),
    "GramMatrix": (
        lambda v: GramMatrix(v).entries,
        "Gram matrix entries",
        [[2, 1, 0], [1, 2, 1], [0, 1, 2]],
        None,
    ),
    "eval_kernel.x": (lambda v: eval_kernel(GAUSS, v, [0.5]), "points", [1], None),
    "eval_kernel.y": (lambda v: eval_kernel(GAUSS, [0.5], v), "points", [1], None),
    "kappa_upper_bound.lo": (lambda v: kappa_upper_bound(POLY, v, [2, 1]), "lo", [-1, 0], None),
    "kappa_upper_bound.hi": (lambda v: kappa_upper_bound(POLY, [-1, 0], v), "hi", [2, 1], None),
    "RepresenterFunction": (
        lambda v: RepresenterFunction(GAUSS, PTS, v).coeffs, "coeffs", [1, 2, -1], 3
    ),
    "gram_norm": (lambda v: gram_norm(G, v), "coeffs", [1, 2, -1], 3),
    "DataSet": (lambda v: DataSet(PTS, v).labels, "labels", [1, 2, -1], 3),
    "krr_fit": (lambda v: krr_fit(BLOCK_DATA, v, GAUSS, gram_matrix=G).coeffs, "lam", [1, 2], None),
    "min_norm_interpolant": (
        lambda v: min_norm_interpolant(PTS, v, GAUSS, gram_matrix=G).coeffs, "rhs", [1, 2, -1], None
    ),
    "regularized_solve.shift": (
        lambda v: regularized_solve(G, v, COLUMNS), "shift", [1, 2], None
    ),
    "regularized_solve.rhs": (
        lambda v: regularized_solve(G, 1.0, v), "rhs", [[1, 0], [2, 1], [-1, 3]], 3
    ),
    "pinv_solve": (lambda v: pinv_solve(G, v), "rhs", [1, 2, -1], None),
    "low_rank_solve": (lambda v: low_rank_solve(FACTOR, 1.0, v), "rhs", [1, 2, -1], 3),
    "apply_p_star": (lambda v: apply_p_star(OP, v).coeffs, "c", [1, 2, -1], 3),
    "ker_p_sample": (
        lambda v: ker_p_sample(OP, PointSet([[4.0], [5.0]]), extra_coeffs=v).coeffs,
        "extra_coeffs",
        [1, -1],
        None,
    ),
    "shrinkage_term": (lambda v: shrinkage_term(G, COLUMNS, v), "lam", [1, 2], None),
    "decomposition_residual.t": (lambda v: _residual(t=v), "t", [10, 20], None),
    "decomposition_residual.lam": (lambda v: _residual(lam=v), "lam", [1, 2], None),
    "decomposition_residual.beta": (lambda v: _residual(beta=v), "beta", [1, 2, -1], None),
    "cross_term_distance.coeffs": (lambda v: _distance(coeffs=v), "coeffs", [1, 2, -1], None),
    "cross_term_distance.gram_product": (
        lambda v: _distance(product=v), "gram_product", [2, 1, 0], None
    ),
    "cross_term_distance.g_values": (lambda v: _distance(values=v), "g_values", [1, 0, 2], None),
    "DataDistribution.lo": (
        lambda v: DataDistribution(v, [2], TARGET, NOISE).lo, "box bounds", [0], None
    ),
    "DataDistribution.hi": (
        lambda v: DataDistribution([0], v, TARGET, NOISE).hi, "box bounds", [2], None
    ),
}


def _with_last(values, v):
    """The nested list ``values`` with its last number replaced by ``v``."""
    if isinstance(values, list):
        return [*values[:-1], _with_last(values[-1], v)]
    return v


def _entry_message(bad) -> str:
    """What the reader says of the bad entry ``bad``, after the argument's name."""
    if isinstance(bad, (bool, np.bool_)):
        return f"must not be or hold a bool, got {bad!r}"
    if isinstance(bad, (str, type(None))):
        return f"must hold real numbers only, got {bad!r}"
    return "must be finite"


ARRAY_CASES = [
    pytest.param(entry, bad, _with_last(good, bad), id=f"{entry}-{bad_id}")
    for entry, (_, _, good, _) in ARRAY_VALUES.items()
    for bad_id, bad in NOT_REAL.items()
]
SHAPE_CASES = [
    pytest.param(entry, shape, id=f"{entry}-{shape_id}")
    for entry, (_, _, good, rows) in ARRAY_VALUES.items()
    if rows is not None
    for shape_id, shape in (("length", (rows + 1,)), ("empty-block", (rows, 0)))
]


@pytest.mark.parametrize("entry,bad,values", ARRAY_CASES)
def test_refuses_an_array_entry_that_is_not_a_real_number(entry, bad, values):
    # A float array reads True as 1 and "1" as 1.0, and None as nan.
    call, name, _, _ = ARRAY_VALUES[entry]
    message = f"{name} {_entry_message(bad)}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(values)


@pytest.mark.parametrize("entry,shape", SHAPE_CASES)
def test_refuses_an_array_without_one_row_per_point(entry, shape):
    call, name, _, rows = ARRAY_VALUES[entry]
    message = (
        f"{name} must be a vector of {rows} numbers or a ({rows}, k >= 1) block, "
        f"got shape {shape}"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(np.ones(shape))


@pytest.mark.parametrize("entry", ARRAY_VALUES)
def test_reads_an_int_list_or_array_as_the_equal_float_array(entry):
    call, _, good, _ = ARRAY_VALUES[entry]
    expected = _bits(call(np.array(good, dtype=float)))
    assert _bits(call(good)) == expected
    assert _bits(call(np.array(good))) == expected


@pytest.mark.parametrize("entry", ARRAY_VALUES)
def test_refuses_arrays_of_unequal_shapes_by_name(entry):
    # numpy's own error, "could not broadcast input array from shape (2,2)
    # into shape (2,)", named no argument.
    call, name, _, _ = ARRAY_VALUES[entry]
    message = f"{name}'s entries do not form a rectangular array"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call([np.zeros((2, 2)), np.zeros((2, 3))])


def test_low_rank_solve_refuses_a_nan_rhs():
    # The Woodbury solve would return all nan.
    with pytest.raises(ValueError, match=r"^rhs must be finite$"):
        low_rank_solve(FACTOR, 1.0, [math.nan, 1.0, 1.0])


@pytest.mark.parametrize(
    "kwargs,shapes",
    [
        (dict(product=(0, 0)), "(3,), (2,) and (3,)"),
        (dict(coeffs=[[0], [0], [0]]), "(3, 1), (3,) and (3,)"),
        (dict(coeffs=0, product=0, values=0), "(), () and ()"),
    ],
    ids=["lengths", "block", "scalars"],
)
def test_cross_term_distance_takes_vectors_of_one_length(kwargs, shapes):
    message = f"coeffs, gram_product and g_values must be vectors of one length, got shapes {shapes}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _distance(**kwargs)


def test_gram_norm_refuses_a_block_without_columns():
    # It returned an empty array of norms, where DataSet, RepresenterFunction
    # and regularized_solve refuse such a block.
    message = r"^coeffs must be a vector of 3 numbers or a \(3, k >= 1\) block, got shape \(3, 0\)$"
    with pytest.raises(ValueError, match=message):
        gram_norm(G, np.ones((3, 0)))


def _leaves(values):
    return sum(map(_leaves, values)) if isinstance(values, list) else 1


def _filled(values, scalars):
    """The nested list ``values`` with its numbers replaced, in order, by
    the iterator ``scalars``."""
    if isinstance(values, list):
        return [_filled(v, scalars) for v in values]
    return next(scalars)


@settings(
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(entry=st.sampled_from(sorted(ARRAY_VALUES)), data=st.data())
def test_any_list_of_scalars_is_read_or_refused_by_name(entry, data):
    # Each number of the entry point's array is an arbitrary scalar.  As in
    # the scalar test above, anything but a result or a ValueError,
    # DiagnosticsError or FloatingPointError is an input the readers let
    # through, and so is a nan in the result.
    call, _, good, _ = ARRAY_VALUES[entry]
    n = _leaves(good)
    values = _filled(good, iter(data.draw(st.lists(SCALARS, min_size=n, max_size=n))))
    with np.errstate(all="raise"):
        try:
            result = call(values)
        except (ValueError, DiagnosticsError, FloatingPointError):
            return
    assert not np.any(np.isnan(result)), (values, result)
