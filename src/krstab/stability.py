"""Closed-form stability constants and the regularization schedules that
make the convergence arguments go through.

For regularized least squares over n points with parameter lam, on a kernel
with diagonal bound kappa^2 (kappa = sup_x sqrt(K(x, x))) and loss changes
controlled by an admissibility constant C:

* uniform stability       beta  = C^2 kappa^2 / (n lam)
* failure probability     p_n   = (64 M n beta + 8 M^2) / (n eps^2)
  for |empirical - expected| risk deviating by more than eps, valid once
  n >= 8 M^2 / eps^2; M bounds the loss on the support.
* eps-closeness of two functionals forces their minimizers within
                          delta = sqrt(2 eps / lam)   in H-norm.
* to end up within eta of a target, it suffices to certify
                          eps   = eta^2 lam / 8.
* squared loss is sigma-admissible with sigma = 2 * x_max where x_max bounds
  |f(x) - y| over the relevant functions and labels.

Power-law schedules lam(i) = lam0 * i^(-exponent) keep the growing-sample
argument alive iff 0 < exponent < 1/3 (then n lam^3 -> infinity) and the
vanishing-noise argument alive iff 0 < exponent < 2 (then t sqrt(lam(t)) ->
infinity).  Both bounds are strict; the boundary exponents fail.
"""

from __future__ import annotations

import dataclasses
import math


@dataclasses.dataclass(frozen=True)
class StabilityParams:
    """Inputs of the stability formulas; every field must be positive."""

    c: float
    kappa: float
    m: float
    n: int
    lam: float
    eps: float

    def __post_init__(self) -> None:
        for name in ("c", "kappa", "m", "lam", "eps"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.n < 1:
            raise ValueError("n must be a positive integer")

    @property
    def sample_size_ok(self) -> bool:
        """Whether n clears the threshold n >= 8 M^2 / eps^2 under which the
        failure probability formula is meaningful."""
        return self.n >= 8.0 * self.m**2 / self.eps**2


def sigma_admissible_ls(x_max: float) -> float:
    """Admissibility constant of squared loss: 2 * x_max."""
    if not x_max > 0:
        raise ValueError(f"x_max must be positive, got {x_max}")
    return 2.0 * x_max


def beta_stability(p: StabilityParams) -> float:
    """Uniform stability coefficient C^2 kappa^2 / (n lam)."""
    return p.c**2 * p.kappa**2 / (p.n * p.lam)


def stability_probability(p: StabilityParams, beta: float) -> float:
    """(64 M n beta + 8 M^2) / (n eps^2)."""
    if beta < 0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    return (64.0 * p.m * p.n * beta + 8.0 * p.m**2) / (p.n * p.eps**2)


def stability_probability_combined(p: StabilityParams) -> float:
    """The same bound with beta substituted in closed form:
    (64 M C^2 kappa^2 + 8 M^2 lam) / (n lam eps^2)."""
    return (64.0 * p.m * p.c**2 * p.kappa**2 + 8.0 * p.m**2 * p.lam) / (
        p.n * p.lam * p.eps**2
    )


def variance_radius(eps: float, lam: float) -> float:
    """H-norm radius sqrt(2 eps / lam) forced by an eps-closeness certificate."""
    if not eps > 0 or not lam > 0:
        raise ValueError("need eps > 0 and lam > 0")
    return math.sqrt(2.0 * eps / lam)


def eps_for_target(eta: float, lam: float) -> float:
    """Closeness level eta^2 lam / 8 that pins the minimizers within eta."""
    if not eta > 0 or not lam > 0:
        raise ValueError("need eta > 0 and lam > 0")
    return eta**2 * lam / 8.0


@dataclasses.dataclass(frozen=True)
class Schedule:
    """Power-law regularization schedule lam(i) = lam0 * i^(-exponent)."""

    lambda0: float
    exponent: float
    family: str = "power"

    def __post_init__(self) -> None:
        if self.family != "power":
            raise ValueError(f"unknown schedule family {self.family!r}")
        if not self.lambda0 > 0:
            raise ValueError("lambda0 must be positive")

    def value(self, index: float) -> float:
        """lam at index (sample size n or noise scale t); index must be > 0."""
        if not index > 0:
            raise ValueError(f"schedule index must be positive, got {index}")
        return self.lambda0 * float(index) ** (-self.exponent)

    @property
    def valid_for_growing_sample(self) -> bool:
        """Growing-sample validity: strictly 0 < exponent < 1/3."""
        return 0.0 < self.exponent < 1.0 / 3.0

    @property
    def valid_for_vanishing_noise(self) -> bool:
        """Vanishing-noise validity: strictly 0 < exponent < 2."""
        return 0.0 < self.exponent < 2.0

    def to_json_dict(self) -> dict:
        return {"family": self.family, "lambda0": self.lambda0, "exponent": self.exponent}

    @staticmethod
    def from_json_dict(obj: dict) -> "Schedule":
        extra = set(obj) - {"family", "lambda0", "exponent"}
        if extra:
            raise ValueError(f"schedule has unknown keys {sorted(extra)}")
        if "lambda0" not in obj or "exponent" not in obj:
            raise ValueError("schedule requires lambda0 and exponent")
        return Schedule(
            lambda0=float(obj["lambda0"]),
            exponent=float(obj["exponent"]),
            family=obj.get("family", "power"),
        )
