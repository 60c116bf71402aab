"""The package's plain record classes: frozen fields, value equality where
the class is a value, and the constructors' positional order and defaults."""

import math

import numpy as np
import pytest

from krstab import (
    ClosenessCertificate,
    DataDistribution,
    DataSet,
    ExperimentReport,
    KernelSpec,
    NoiseProcess,
    PointSet,
    ReportRow,
    RepresenterFunction,
    Schedule,
    StabilityParams,
)
from krstab.linalg import EigenDecomposition, Frozen, FrozenValue

GAUSS = KernelSpec.gaussian(0.7)


def _function():
    return RepresenterFunction(GAUSS, PointSet([[0.5], [1.5]]), np.array([1.0, -0.5]))


def _certificate(eps=0.1):
    return ClosenessCertificate(eps, 0.01, 0.02, 0.03, True, True, True)


# One builder per frozen class, called afresh for each object.
FROZEN = {
    "EigenDecomposition": lambda: EigenDecomposition(np.array([2.0, 1.0]), np.eye(2)),
    "KernelSpec": lambda: KernelSpec("gaussian", 0.7),
    "PointSet": lambda: PointSet([[0.0], [1.0]]),
    "RepresenterFunction": _function,
    "DataSet": lambda: DataSet(PointSet([[0.0], [1.0]]), [1.0, 2.0]),
    "ClosenessCertificate": _certificate,
    "StabilityParams": lambda: StabilityParams(1.0, 1.0, 1.0, 10, 0.1, 0.5),
    "Schedule": lambda: Schedule(0.5, 0.3),
    "NoiseProcess": lambda: NoiseProcess("uniform", 0.5),
    "DataDistribution": lambda: DataDistribution(
        [0.0], [2.0], _function(), NoiseProcess("uniform", 0.5)
    ),
}

# Per value class: two builders of equal objects and one of a different object.
VALUES = {
    "KernelSpec": (
        lambda: KernelSpec("polynomial", degree=2, offset=1.0),
        lambda: KernelSpec.polynomial(2, 1.0),
        lambda: KernelSpec.polynomial(3, 1.0),
    ),
    "NoiseProcess": (
        lambda: NoiseProcess("truncated_gaussian", 0.5, 0.2),
        lambda: NoiseProcess(kind="truncated_gaussian", b_max=0.5, sd=0.2),
        lambda: NoiseProcess("truncated_gaussian", 0.5, 0.3),
    ),
    "Schedule": (
        lambda: Schedule(0.5, 0.3),
        lambda: Schedule(lambda0=0.5, exponent=0.3),
        lambda: Schedule(0.5, 0.2),
    ),
    "StabilityParams": (
        lambda: StabilityParams(1.0, 1.0, 1.0, 10, 0.1, 0.5),
        lambda: StabilityParams(c=1.0, kappa=1.0, m=1.0, n=10, lam=0.1, eps=0.5),
        lambda: StabilityParams(1.0, 1.0, 1.0, 11, 0.1, 0.5),
    ),
    "ClosenessCertificate": (_certificate, _certificate, lambda: _certificate(0.2)),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_frozen_class_is_covered():
    names = {c.__name__ for c in _subclasses(Frozen)} - {"FrozenValue"}
    assert names == set(FROZEN) and len(names) == 10
    assert {c.__name__ for c in FrozenValue.__subclasses__()} == set(VALUES)


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_fields_refuse_assignment_and_deletion(name):
    obj = FROZEN[name]()
    field = next(iter(vars(obj)))
    before = vars(obj)[field]
    with pytest.raises(AttributeError, match=field):
        setattr(obj, field, None)
    with pytest.raises(AttributeError, match=field):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.new_attribute = 1
    assert vars(obj)[field] is before
    assert "new_attribute" not in vars(obj)


@pytest.mark.parametrize("name", VALUES)
def test_value_classes_compare_and_hash_by_fields(name):
    make, make_equal, make_other = VALUES[name]
    a, b, c = make(), make_equal(), make_other()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert not a != b
    assert a != c and c != a
    assert len({a, b, c}) == 2
    assert a != tuple(vars(a).values())


@pytest.mark.parametrize("name", sorted(set(FROZEN) - set(VALUES)))
def test_other_frozen_classes_compare_by_identity(name):
    a, b = FROZEN[name](), FROZEN[name]()
    assert a == a and a != b
    assert hash(a) != hash(b)


def test_constructors_keep_positional_order_and_defaults():
    assert vars(Schedule(0.5, 0.3)) == {"lambda0": 0.5, "exponent": 0.3}
    assert vars(KernelSpec("linear")) == {
        "kind": "linear",
        "width": None,
        "degree": None,
        "offset": None,
    }
    assert NoiseProcess("uniform", 0.5).sd is None
    row = ReportRow(8, 0.25, 1, 99, 0.5, 0.75)
    assert (row.index_var, row.lam, row.trial, row.seed, row.beta, row.p_n) == (
        8,
        0.25,
        1,
        99,
        0.5,
        0.75,
    )
    for name in ("h_distance", "shrinkage_term", "noise_bound", "decomp_residual"):
        assert math.isnan(getattr(row, name))
    assert row.flag == ""
    keyword = ReportRow(index_var=8, lam=0.25, trial=1, seed=99, beta=0.5, p_n=0.75, flag="x")
    assert keyword.flag == "x" and math.isnan(keyword.h_distance)
    report = ExperimentReport([row], {"command": "thm1"})
    assert report.rows == [row] and report.metadata == {"command": "thm1"}


def test_report_rows_stay_mutable():
    # The harnesses fill in the distance columns after building the rows.
    row = ReportRow(8, 0.25, 0, 1, 0.5, 0.75)
    row.h_distance = 0.125
    row.flag = "diagnostic"
    assert (row.h_distance, row.flag) == (0.125, "diagnostic")


def test_validation_runs_in_the_constructor():
    with pytest.raises(ValueError, match="width > 0"):
        KernelSpec("gaussian")
    with pytest.raises(ValueError, match="lambda0 must be positive"):
        Schedule(0.0, 0.3)
    with pytest.raises(ValueError, match="lam must be positive"):
        StabilityParams(1.0, 1.0, 1.0, 10, 0.0, 0.5)
    with pytest.raises(ValueError, match="takes no sd"):
        NoiseProcess("uniform", 0.5, 0.1)
    with pytest.raises(ValueError, match="coeffs must be a vector"):
        RepresenterFunction(GAUSS, [[0.0]], [1.0, 2.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "make",
    [
        lambda v: KernelSpec("gaussian", width=v),
        lambda v: KernelSpec("polynomial", degree=v, offset=1.0),
        lambda v: KernelSpec("polynomial", degree=2, offset=v),
        lambda v: NoiseProcess("uniform", v),
        lambda v: NoiseProcess("truncated_gaussian", 0.5, sd=v),
        lambda v: Schedule(v, 0.3),
        lambda v: Schedule(0.5, v),
    ],
    ids=["width", "degree", "offset", "b_max", "sd", "lambda0", "exponent"],
)
def test_constructors_reject_non_finite_parameters(make, bad):
    with pytest.raises(ValueError, match="finite"):
        make(bad)


@pytest.mark.parametrize("bad", [True, np.True_], ids=["bool", "numpy-bool"])
@pytest.mark.parametrize(
    "make,field",
    [
        (lambda v: NoiseProcess("uniform", v), "b_max"),
        (lambda v: NoiseProcess("truncated_gaussian", 1.0, sd=v), "sd"),
        (lambda v: Schedule(v, 0.3), "lambda0"),
        (lambda v: Schedule(0.5, v), "exponent"),
        (lambda v: StabilityParams(v, 1.0, 1.0, 10, 0.1, 0.5), "c"),
        (lambda v: StabilityParams(1.0, v, 1.0, 10, 0.1, 0.5), "kappa"),
        (lambda v: StabilityParams(1.0, 1.0, v, 10, 0.1, 0.5), "m"),
        (lambda v: StabilityParams(1.0, 1.0, 1.0, 10, v, 0.5), "lam"),
        (lambda v: StabilityParams(1.0, 1.0, 1.0, 10, 0.1, v), "eps"),
    ],
    ids=["b_max", "sd", "lambda0", "exponent", "c", "kappa", "m", "lam", "eps"],
)
def test_constructors_refuse_a_bool_for_a_number(make, field, bad):
    # A bool is a number to Python: unrefused, it would be read as 1 and
    # echoed as true in a run's metadata.
    with pytest.raises(ValueError, match=rf"^{field} must be"):
        make(bad)
