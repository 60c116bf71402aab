"""Shared test fixtures: random instance generators with conditioning
control, used by both the module tests and the acceptance suite, a counter
of kernel matrix calls, and the ``ci`` hypothesis profile."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import settings

import krstab.kernels
from krstab import GramMatrix, KernelSpec, PointSet, gram

# A wider search for the CLI contract and the scalar and array input property
# tests, which take their example count from the loaded profile (100 by
# default): CI reruns tests/test_cli_contract.py and tests/test_counts.py
# alone with --hypothesis-profile=ci.
settings.register_profile("ci", max_examples=300)


def make_random_instance(rng: np.random.Generator, max_cond: float):
    """One random (kernel, points, gram) with cond(G) <= max_cond.

    Gaussian instances place up to 30 points on a jittered unit grid in
    d in {1,2,3} with width well below the spacing; polynomial instances
    keep n below the feature-space rank so G stays numerically full rank.
    Draws are rejected until the conditioning filter passes.
    """
    for _ in range(500):
        if rng.random() < 0.5:
            d = int(rng.integers(1, 4))
            n = int(rng.integers(2, 31))
            side = max(2, math.ceil(n ** (1.0 / d)))
            axes = [np.arange(side, dtype=float) for _ in range(d)]
            full = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
            pts = full[rng.permutation(full.shape[0])[:n]] + rng.uniform(-0.2, 0.2, (n, d))
            spec = KernelSpec.gaussian(rng.uniform(0.35, 0.6))
        else:
            d = int(rng.integers(2, 4))
            deg = int(rng.integers(2, 4))
            rank = math.comb(d + deg, d)
            n = int(rng.integers(2, min(30, rank - 1) + 1))
            pts = rng.uniform(-1.0, 1.0, (n, d))
            spec = KernelSpec.polynomial(deg, rng.uniform(0.5, 1.5))
        g = gram(spec, PointSet(pts))
        w = g.eigen.eigenvalues
        if w[-1] > 0 and w[0] / w[-1] <= max_cond:
            return spec, PointSet(pts), g
    raise AssertionError("conditioning filter failed to accept an instance")


def make_random_psd(rng: np.random.Generator, n: int, forced_eigenvalue: float | None = None):
    """Random PSD matrix via Q diag(w) Q^T with |N(0,1)|-distributed
    eigenvalues; one eigenvalue can be forced to an exact value."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    w = np.abs(rng.normal(size=n)) + 1e-6
    if forced_eigenvalue is not None:
        w[0] = forced_eigenvalue
    return GramMatrix(q @ np.diag(w) @ q.T)


@pytest.fixture(scope="session")
def instance_factory():
    return make_random_instance


@pytest.fixture(scope="session")
def psd_factory():
    return make_random_psd


@pytest.fixture
def kernel_matrix_calls(monkeypatch):
    """The (len(xs), len(ys)) of every kernel_matrix call, at each krstab
    module attribute bound to the function."""
    calls = []
    real = krstab.kernels.kernel_matrix

    def counted(spec, xs, ys):
        calls.append((len(xs), len(ys)))
        return real(spec, xs, ys)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "krstab" and getattr(module, "kernel_matrix", None) is real:
            monkeypatch.setattr(module, "kernel_matrix", counted)
    return calls
