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

Every formula, and the schedule's value, returns a finite float or raises a
ValueError that names the quantity which left the float range, so extreme
but finite inputs fail the same way on every path: Python's float ``**``
raises OverflowError and its ``/`` ZeroDivisionError (a divisor that
underflowed to 0) where numpy would return inf, and ``*`` returns inf.
"""

from __future__ import annotations

import functools
import math

from .linalg import FrozenValue, _as_count, _as_real


class StabilityParams(FrozenValue):
    """Inputs of the stability formulas; every field must be positive."""

    def __init__(self, c: float, kappa: float, m: float, n: int, lam: float, eps: float) -> None:
        for name, value in (("c", c), ("kappa", kappa), ("m", m), ("lam", lam), ("eps", eps)):
            _as_real(value, name)
        vars(self).update(c=c, kappa=kappa, m=m, n=_as_count(n, "n"), lam=lam, eps=eps)

    @property
    def sample_size_ok(self) -> bool:
        """Whether n clears the threshold n >= 8 M^2 / eps^2 under which the
        failure probability formula is meaningful; a threshold outside the
        float range is a ValueError naming it."""
        return self.n >= _sample_size_threshold(self)


def _in_float_range(quantity: str, positive: bool = False):
    """Decorator: the formula's result, or a ValueError naming ``quantity``
    when the result is not a finite float (or, with ``positive``, when it
    underflowed to 0 from positive inputs)."""

    def decorate(formula):
        @functools.wraps(formula)
        def checked(*args, **kwargs):
            try:
                value = formula(*args, **kwargs)
                finite = math.isfinite(value)  # an int result may overflow here
            except (OverflowError, ZeroDivisionError):
                finite = False
            if not finite or (positive and not value > 0):
                raise ValueError(f"{quantity} leaves the float range for these inputs")
            return value

        return checked

    return decorate


@_in_float_range("sample_size_threshold = 8 M^2 / eps^2")
def _sample_size_threshold(p: StabilityParams) -> float:
    """The n from which the failure probability formula holds: 8 M^2 / eps^2."""
    return 8.0 * p.m**2 / p.eps**2


@_in_float_range("sigma_admissible = 2 * x_max")
def sigma_admissible_ls(x_max: float) -> float:
    """Admissibility constant of squared loss: 2 * x_max."""
    return 2.0 * _as_real(x_max, "x_max")


@_in_float_range("beta = C^2 kappa^2 / (n lam)")
def beta_stability(p: StabilityParams) -> float:
    """Uniform stability coefficient C^2 kappa^2 / (n lam)."""
    return p.c**2 * p.kappa**2 / (p.n * p.lam)


@_in_float_range("p_n = (64 M n beta + 8 M^2) / (n eps^2)")
def stability_probability(p: StabilityParams, beta: float) -> float:
    """(64 M n beta + 8 M^2) / (n eps^2)."""
    return (64.0 * p.m * p.n * _as_real(beta, "beta", ">= 0") + 8.0 * p.m**2) / (p.n * p.eps**2)


@_in_float_range("p_n_combined = (64 M C^2 kappa^2 + 8 M^2 lam) / (n lam eps^2)")
def stability_probability_combined(p: StabilityParams) -> float:
    """The same bound with beta substituted in closed form:
    (64 M C^2 kappa^2 + 8 M^2 lam) / (n lam eps^2)."""
    return (64.0 * p.m * p.c**2 * p.kappa**2 + 8.0 * p.m**2 * p.lam) / (
        p.n * p.lam * p.eps**2
    )


@_in_float_range("variance_radius = sqrt(2 eps / lam)")
def variance_radius(eps: float, lam: float) -> float:
    """H-norm radius sqrt(2 eps / lam) forced by an eps-closeness certificate."""
    return math.sqrt(2.0 * _as_real(eps, "eps") / _as_real(lam, "lam"))


@_in_float_range("eps_for_target = eta^2 lam / 8", positive=True)
def eps_for_target(eta: float, lam: float) -> float:
    """Closeness level eta^2 lam / 8 that pins the minimizers within eta."""
    return _as_real(eta, "eta") ** 2 * _as_real(lam, "lam") / 8.0


class Schedule(FrozenValue):
    """Power-law regularization schedule lam(i) = lam0 * i^(-exponent)."""

    def __init__(self, lambda0: float, exponent: float) -> None:
        vars(self).update(
            lambda0=_as_real(lambda0, "lambda0"), exponent=_as_real(exponent, "exponent", "")
        )

    @_in_float_range("the schedule's lambda = lambda0 * index^-exponent", positive=True)
    def value(self, index: float) -> float:
        """lam at index (sample size n or noise scale t); index must be > 0."""
        return self.lambda0 * float(_as_real(index, "schedule index")) ** (-self.exponent)

    @property
    def valid_for_growing_sample(self) -> bool:
        """Growing-sample validity: strictly 0 < exponent < 1/3."""
        return 0.0 < self.exponent < 1.0 / 3.0

    @property
    def valid_for_vanishing_noise(self) -> bool:
        """Vanishing-noise validity: strictly 0 < exponent < 2."""
        return 0.0 < self.exponent < 2.0

    def to_json_dict(self) -> dict:
        return {"family": "power", "lambda0": self.lambda0, "exponent": self.exponent}
