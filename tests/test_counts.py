"""The one reading of counts: every library entry point that takes a sample
size, count or index reads it through ``linalg._as_count``.  Each refuses a
bool, a fraction, nan, inf and a value below its floor with a ValueError
naming the argument, and reads an integral number as the int it equals."""

import math
import re

import numpy as np
import pytest

from krstab.experiments import (
    DataDistribution,
    ExperimentReport,
    NoiseProcess,
    run_thm1,
    sample_dataset,
)
from krstab.kernels import KernelSpec, PointSet
from krstab.linalg import Frozen
from krstab.operators import filter_gain_bound, filter_max, noise_operator_bound
from krstab.rkhs import RepresenterFunction
from krstab.rng import SplitMix64, mix64
from krstab.stability import Schedule, StabilityParams

GAUSS = KernelSpec.gaussian(0.7)
DIST = DataDistribution(
    [0.0],
    [2.0],
    RepresenterFunction(GAUSS, PointSet([[0.5], [1.5]]), np.array([1.0, -0.5])),
    NoiseProcess("uniform", 0.25),
)
SCHEDULE = Schedule(1.0, 0.25)
BELOW = object()  # stands for one less than the entry point's smallest count

# name -> (call with the count, the argument's name, the smallest count taken).
ENTRY_POINTS = {
    "sample_dataset": (lambda v: sample_dataset(DIST, v, 3), "n", 1),
    "sample_x": (lambda v: DIST.sample_x(v, SplitMix64(3)), "n", 1),
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
}


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


@pytest.mark.parametrize(
    "bad",
    [True, np.True_, 2.5, math.nan, math.inf, BELOW],
    ids=["bool", "numpy-bool", "fraction", "nan", "inf", "below"],
)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_refuses_what_is_not_a_count(entry, bad):
    # A bool is an int to Python, and a fraction would reach rng's ``&`` as
    # a TypeError or be used as a size, so each is refused by name here.
    call, name, low = ENTRY_POINTS[entry]
    value = low - 1 if bad is BELOW else bad
    # KernelSpec's finite-number check names a bool, nan or inf degree first.
    with pytest.raises(ValueError, match=rf"^(kernel )?{re.escape(name)} must be"):
        call(value)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_reads_an_integral_number_as_an_int(entry):
    call, _, low = ENTRY_POINTS[entry]
    for count in (low, 3):
        expected = _bits(call(count))
        assert _bits(call(float(count))) == expected
        assert _bits(call(np.int64(count))) == expected


def test_refusal_messages():
    with pytest.raises(ValueError, match=r"^index must be a nonnegative integer, got -1$"):
        mix64(1, -1)
    with pytest.raises(ValueError, match=r"^n must be a positive integer, got True$"):
        sample_dataset(DIST, True, 3)
    with pytest.raises(ValueError, match=r"^n_grid must be nonempty$"):
        run_thm1(DIST, SCHEDULE, [], trials=1, seed=0)
