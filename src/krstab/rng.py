"""Reproducible 64-bit random streams.

Experiment rows must be replayable from ``(master_seed, row_index)`` alone,
in any language, so the generator is pinned rather than borrowed from numpy:
SplitMix64 (Steele, Lea, Flood).  The state advances by the odd constant

    GAMMA = 0x9E3779B97F4A7C15

and each output is the new state scrambled by two xorshift-multiply rounds
with the published constants 0xBF58476D1CE4E5B9 (shift 30) and
0x94D049BB133111EB (shift 27), followed by a final shift of 31.  Because the
state is an affine counter, the i-th output of a stream is available in O(1)
via :func:`mix64`, which is what the harnesses use to derive per-row seeds.
The same fact gives whole batches as one vectorized expression
(:meth:`SplitMix64.words`): uint64 arithmetic wraps modulo 2**64 exactly as
the masked integer arithmetic does, so a batch is bit-identical to the same
number of scalar draws.

Doubles take the top 53 bits of an output word, giving the uniform grid
``k * 2**-53`` on [0, 1).
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import _as_count

_MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB


def scramble(z: int) -> int:
    """Output function applied to a raw 64-bit state word."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX_1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_2) & _MASK
    return z ^ (z >> 31)


def mix64(seed: int, index: int) -> int:
    """The ``index``-th output (0-based) of the stream seeded with ``seed``.

    Equal to ``SplitMix64(seed)`` advanced ``index + 1`` times, but computed
    directly, so derived seeds for row k never require generating rows < k.
    A seed is any integer, read modulo 2**64, as :class:`SplitMix64` reads it.
    """
    seed, index = _as_count(seed, "seed", low=None), _as_count(index, "index", low=0)
    return scramble((seed + (index + 1) * GAMMA) & _MASK)


def _scramble_words(z: np.ndarray) -> np.ndarray:
    """:func:`scramble` applied elementwise to uint64 state words, in place."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX_1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX_2)
    z ^= z >> np.uint64(31)
    return z


class SplitMix64:
    """Sequential stream over the generator above, from any integer seed
    read modulo 2**64."""

    def __init__(self, seed: int):
        self._state = _as_count(seed, "seed", low=None) & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + GAMMA) & _MASK
        return scramble(self._state)

    def words(self, k: int) -> np.ndarray:
        """The next ``k`` output words as a uint64 array; the stream ends
        where ``k`` calls of :meth:`next_u64` would leave it."""
        k = _as_count(k, "k", low=0)
        steps = np.arange(1, k + 1, dtype=np.uint64)
        z = np.uint64(self._state) + steps * np.uint64(GAMMA)
        self._state = (self._state + k * GAMMA) & _MASK
        return _scramble_words(z)

    def doubles(self, k: int) -> np.ndarray:
        """The next ``k`` values of :meth:`next_double`, as a float array."""
        return (self.words(k) >> np.uint64(11)).astype(float) * 2.0**-53

    def next_double(self) -> float:
        """Uniform on [0, 1) with 53-bit resolution."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def next_double_open(self) -> float:
        """Uniform on (0, 1]; safe as a log argument."""
        return ((self.next_u64() >> 11) + 1) * 2.0 ** -53

    def normal(self, sd: float = 1.0) -> float:
        """One Box-Muller draw; consumes exactly two output words."""
        u1 = self.next_double_open()
        u2 = self.next_double()
        return sd * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
