"""Generator pinning: the streams must match the published SplitMix64
outputs and stay reproducible forever."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from krstab.rng import GAMMA, SplitMix64, mix64, scramble

# first outputs of SplitMix64 seeded with 0, from the reference implementation
SEED0_OUTPUTS = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
]


def test_published_vector_seed_zero():
    s = SplitMix64(0)
    assert [s.next_u64() for _ in range(5)] == SEED0_OUTPUTS


def test_mix64_is_indexed_stream():
    for seed in (0, 1, 123456789, 2**64 - 1):
        s = SplitMix64(seed)
        assert [mix64(seed, i) for i in range(10)] == [s.next_u64() for i in range(10)]


def test_mix64_first_output_definition():
    assert mix64(7, 0) == scramble((7 + GAMMA) & (2**64 - 1))


def test_mix64_rejects_negative_index():
    try:
        mix64(0, -1)
    except ValueError:
        return
    raise AssertionError("negative index must raise")


def test_doubles_in_unit_interval():
    s = SplitMix64(99)
    vals = [s.next_double() for _ in range(2000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert abs(np.mean(vals) - 0.5) < 0.05


def test_open_doubles_positive():
    s = SplitMix64(3)
    assert all(0.0 < s.next_double_open() <= 1.0 for _ in range(2000))


def test_uniform_bounds():
    s = SplitMix64(5)
    vals = [-2.0 + 5.0 * s.next_double() for _ in range(2000)]
    assert all(-2.0 <= v < 3.0 for v in vals)


def test_sign_is_pm_one():
    s = SplitMix64(11)
    vals = {1.0 if s.next_u64() >> 63 else -1.0 for _ in range(200)}
    assert vals == {-1.0, 1.0}


def test_normal_moments():
    s = SplitMix64(17)
    vals = np.array([s.normal() for _ in range(20000)])
    assert abs(float(np.mean(vals))) < 0.03
    assert abs(float(np.std(vals)) - 1.0) < 0.03


def test_streams_reproducible():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.next_double() for _ in range(50)] == [b.next_double() for _ in range(50)]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), k=st.integers(0, 3000))
def test_words_equal_scalar_draws(seed, k):
    batch, scalar = SplitMix64(seed), SplitMix64(seed)
    assert batch.words(k).tolist() == [scalar.next_u64() for _ in range(k)]
    assert batch.next_u64() == scalar.next_u64()


def test_words_wrap_at_largest_seed():
    batch, scalar = SplitMix64(2**64 - 1), SplitMix64(2**64 - 1)
    words = batch.words(5)
    assert words.dtype == np.uint64
    assert words.tolist() == [scalar.next_u64() for _ in range(5)]
    assert batch.next_u64() == scalar.next_u64()


def test_doubles_equal_scalar_draws():
    for seed in (0, 1, 2**63, 2**64 - 1):
        batch, scalar = SplitMix64(seed), SplitMix64(seed)
        expect = np.array([scalar.next_double() for _ in range(257)])
        assert batch.doubles(257).tobytes() == expect.tobytes()
        assert batch.next_double() == scalar.next_double()


def test_scaled_doubles_equal_scalar_uniform():
    # uniform(lo, hi, k) is how the library batches k scalar draws
    # lo + (hi - lo) * next_double(); it must give their bits and end state.
    for seed in (0, 1, 12345, 2**63, 2**64 - 1):
        for scale in (1.0, 0.1, 0.47, 123.456):
            lo, hi = -scale, scale
            batch, scalar = SplitMix64(seed), SplitMix64(seed)
            expect = np.array([lo + (hi - lo) * scalar.next_double() for _ in range(257)])
            assert batch.uniform(lo, hi, 257).tobytes() == expect.tobytes()
            assert batch.next_u64() == scalar.next_u64()


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_uniform_on_a_box_equals_scalar_draws_point_major(seed):
    # Vector bounds broadcast against an (n, d) shape: row i holds the i-th
    # point, its d coordinates drawn in turn against bounds lo[j], hi[j].
    lo, hi = np.array([0.0, -1.0, 2.0]), np.array([2.0, 1.0, 2.5])
    batch, scalar = SplitMix64(seed), SplitMix64(seed)
    expect = np.array(
        [[lo[j] + (hi[j] - lo[j]) * scalar.next_double() for j in range(3)] for _ in range(41)]
    )
    got = batch.uniform(lo, hi, (41, 3))
    assert got.shape == (41, 3)
    assert got.tobytes() == expect.tobytes()
    assert batch.next_u64() == scalar.next_u64()


@pytest.mark.parametrize("shape", [0, (0,), (0, 3)])
def test_uniform_of_no_values_leaves_the_stream(shape):
    batch, scalar = SplitMix64(5), SplitMix64(5)
    got = batch.uniform(-1.0, 1.0, shape)
    assert got.shape == np.empty(shape).shape
    assert batch.next_u64() == scalar.next_u64()


def test_words_reject_negative_count():
    with pytest.raises(ValueError):
        SplitMix64(0).words(-1)
