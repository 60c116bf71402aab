"""Stability formulas: pinned worked values, algebraic consistency between
the two-step and combined probability forms, scaling laws, and schedule
validity windows (strict at the boundaries)."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from krstab.stability import (
    Schedule,
    StabilityParams,
    beta_stability,
    eps_for_target,
    sigma_admissible_ls,
    stability_probability,
    stability_probability_combined,
    variance_radius,
)

pos = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)


def params(c=1.0, kappa=1.0, m=1.0, n=100, lam=0.01, eps=1.0):
    return StabilityParams(c=c, kappa=kappa, m=m, n=n, lam=lam, eps=eps)


class TestFormulas:
    def test_beta_pinned(self):
        assert beta_stability(params(c=1, kappa=1, n=100, lam=0.01)) == 1.0
        assert beta_stability(params(c=2, kappa=1, n=1, lam=4.0)) == 1.0

    def test_probability_pinned(self):
        p = params(m=1, n=8, eps=1.0)
        assert stability_probability(p, 0.0) == 1.0

    def test_probability_combined_pinned(self):
        p = params(c=1, kappa=1, m=1, n=10**6, lam=0.1, eps=0.5)
        assert abs(stability_probability_combined(p) - 2.592e-3) <= 1e-12 * 2.592e-3

    def test_variance_radius_pinned(self):
        assert variance_radius(2.0, 1.0) == 2.0

    def test_eps_for_target_pinned(self):
        assert eps_for_target(2.0, 2.0) == 1.0

    def test_sigma_pinned(self):
        assert sigma_admissible_ls(0.5) == 1.0

    @given(c=pos, kappa=pos, m=pos, lam=pos, eps=pos, n=st.integers(1, 10**9))
    def test_two_step_equals_combined(self, c, kappa, m, lam, eps, n):
        p = StabilityParams(c=c, kappa=kappa, m=m, n=n, lam=lam, eps=eps)
        two_step = stability_probability(p, beta_stability(p))
        combined = stability_probability_combined(p)
        assert abs(two_step - combined) <= 1e-12 * max(two_step, combined)

    @given(eta=pos, lam=pos)
    def test_radius_of_sufficient_eps_is_half_eta(self, eta, lam):
        # plugging the sufficient closeness level back in lands at eta/2
        assert abs(variance_radius(eps_for_target(eta, lam), lam) - eta / 2.0) <= 1e-12 * eta

    def test_beta_scaling_laws(self):
        base = beta_stability(params())
        assert beta_stability(params(c=2.0)) == 4.0 * base
        assert beta_stability(params(kappa=3.0)) == 9.0 * base
        assert beta_stability(params(n=200)) == base / 2.0
        assert beta_stability(params(lam=0.02)) == base / 2.0

    def test_sigma_bounds_squared_loss_differences(self):
        # |(u - y)^2 - (v - y)^2| <= 2 x_max |u - v| when |u-y|,|v-y| <= x_max
        rng = np.random.default_rng(80)
        for _ in range(1000):
            y = rng.uniform(-1, 1)
            u, v = y + rng.uniform(-2, 2), y + rng.uniform(-2, 2)
            x_max = max(abs(u - y), abs(v - y))
            if x_max == 0:
                continue
            lhs = abs((u - y) ** 2 - (v - y) ** 2)
            assert lhs <= sigma_admissible_ls(x_max) * abs(u - v) + 1e-12

    def test_probability_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            stability_probability(params(), -1.0)


class TestParams:
    def test_field_validation(self):
        with pytest.raises(ValueError):
            params(c=0.0)
        with pytest.raises(ValueError):
            params(lam=-1.0)
        with pytest.raises(ValueError):
            StabilityParams(c=1, kappa=1, m=1, n=0, lam=1, eps=1)

    def test_sample_size_threshold(self):
        assert params(m=1.0, n=8, eps=1.0).sample_size_ok
        assert not params(m=1.0, n=7, eps=1.0).sample_size_ok


def growing(exponent):
    return Schedule(lambda0=1.0, exponent=exponent).valid_for_growing_sample


def vanishing(exponent):
    return Schedule(lambda0=1.0, exponent=exponent).valid_for_vanishing_noise


class TestScheduleValidity:
    def test_thm1_window(self):
        assert growing(0.2)
        assert growing(0.3)
        assert not growing(1.0 / 3.0)  # boundary excluded
        assert not growing(0.4)
        assert not growing(0.0)
        assert not growing(-0.1)

    def test_thm2_window(self):
        assert vanishing(1.0)
        assert vanishing(1.999)
        assert not vanishing(2.0)  # boundary excluded
        assert not vanishing(0.0)

    def test_valid_exponent_sends_probability_to_zero(self):
        # under lam(n) = n^-p with p < 1/3, p_n decays like n^-(1-3p)
        sched = Schedule(lambda0=1.0, exponent=0.3)
        pn = []
        for n in (10**6, 10**12, 10**18):
            lam = sched.value(n)
            p = StabilityParams(c=1, kappa=1, m=1, n=n, lam=lam, eps=eps_for_target(1.0, lam))
            pn.append(stability_probability(p, beta_stability(p)))
        # n^-0.1 over six decades: a factor ~10^-0.6 ~ 0.25 per step
        assert pn[1] < 0.3 * pn[0] and pn[2] < 0.3 * pn[1]

    def test_boundary_exponent_stalls(self):
        # at p = 1/3 the dominant term of p_n is constant in n
        sched = Schedule(lambda0=1.0, exponent=1.0 / 3.0)
        pn = []
        for n in (10**6, 10**12):
            lam = sched.value(n)
            p = StabilityParams(c=1, kappa=1, m=1, n=n, lam=lam, eps=eps_for_target(1.0, lam))
            pn.append(stability_probability(p, beta_stability(p)))
        assert pn[1] > 0.9 * pn[0]


class TestSchedule:
    def test_power_law_values(self):
        sched = Schedule(lambda0=0.5, exponent=0.3)
        assert sched.value(1) == 0.5
        assert abs(sched.value(32) - 0.5 * 32.0 ** -0.3) < 1e-15

    def test_validity_properties(self):
        assert Schedule(lambda0=1.0, exponent=0.25).valid_for_growing_sample
        assert not Schedule(lambda0=1.0, exponent=0.5).valid_for_growing_sample
        assert Schedule(lambda0=1.0, exponent=1.0).valid_for_vanishing_noise
        assert not Schedule(lambda0=1.0, exponent=2.5).valid_for_vanishing_noise

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            Schedule(lambda0=0.0, exponent=0.5)
        with pytest.raises(ValueError):
            Schedule(lambda0=1.0, exponent=0.5, family="geometric")
        with pytest.raises(ValueError):
            Schedule(lambda0=1.0, exponent=0.5).value(0)

    def test_json_round_trip(self):
        sched = Schedule(lambda0=0.25, exponent=1.5)
        assert Schedule.from_json_dict(sched.to_json_dict()) == sched
        with pytest.raises(ValueError, match="unknown"):
            Schedule.from_json_dict({"lambda0": 1.0, "exponent": 1.0, "rate": 2})


def test_decay_exponent_arithmetic():
    # symbolic check of the power-law exponents entering p_n:
    # with lam = n^-p, the two terms of p_n scale as n^-(1-3p) and n^-(1-p);
    # both exponents are positive exactly when 0 < p < 1/3
    for p in (0.1, 0.2, 0.3):
        assert 1.0 - 3.0 * p > 0 and 1.0 - p > 0
    assert 1.0 - 3.0 * (1.0 / 3.0) == 0.0
    assert math.isclose(1.0 - 3.0 * 0.4, -0.2)
