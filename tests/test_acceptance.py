"""Acceptance suite: eight package-level guarantees, one test per
criterion, each printing a single PASS/FAIL line with the measured
margins.  The lines bypass pytest's output capture so they appear in the
terminal log of a plain ``pytest`` run.

The first four criteria carry wall-clock budgets that are asserted along
with the numerical tolerances.
"""

import json
import math
import time

import numpy as np
import pytest

from krstab.cli import main as cli_main
from krstab.experiments import (
    DataDistribution,
    NoiseProcess,
    run_thm1,
    run_thm2,
)
from krstab.kernels import KernelSpec, PointSet
from krstab.operators import (
    EvaluationOperator,
    filter_gain_bound,
    filter_gains,
    filter_max,
    ker_p_sample,
    noise_operator_bound,
    operator_norm_bound_p,
)
from krstab.rkhs import (
    RepresenterFunction,
    combine,
    evaluate,
    h_distance,
    inner_product,
    rkhs_norm,
)
from krstab.solver import DataSet, krr_fit, min_norm_interpolant
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


@pytest.fixture
def announce(request):
    """Print one summary line straight to the terminal, capture or not."""
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def _announce(text):
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print("\n" + text, flush=True)
        else:
            print("\n" + text, flush=True)

    return _announce


def verdict(ok):
    return "PASS" if ok else "FAIL"


def descent_fit_coeffs(g_entries, y, lam, max_iter=400_000):
    """Independent optimizer for the coefficient objective
    q(a) = (1/n) ||G a - y||^2 + lam a^T G a.

    Accelerated gradient descent with a power-iteration step size and
    gradient-based restarts; uses only matrix-vector products, no solves
    or factorizations, so it shares nothing with the closed-form route.
    """
    n = len(y)
    h = (2.0 / n) * (g_entries @ g_entries) + 2.0 * lam * g_entries
    b = (2.0 / n) * (g_entries @ y)
    v = np.ones(n) / math.sqrt(n)
    hnorm = 1.0
    for _ in range(100):
        w = h @ v
        hnorm = float(np.linalg.norm(w))
        v = w / hnorm
    step = 1.0 / (hnorm * 1.02)
    x = np.zeros(n)
    x_prev = x
    t = 1.0
    best = math.inf
    stalled = 0
    for it in range(max_iter):
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        z = x + ((t - 1.0) / t_next) * (x - x_prev)
        g = h @ z - b
        x_new = z - step * g
        if float(g @ (x_new - x)) > 0.0:
            # momentum points uphill: restart from a plain gradient step
            t_next = 1.0
            x_new = x - step * (h @ x - b)
        x_prev, x, t = x, x_new, t_next
        if it % 25 == 24:
            ginf = float(np.max(np.abs(h @ x - b)))
            if ginf <= 1e-12:
                break
            if ginf < 0.999 * best:
                best = ginf
                stalled = 0
            else:
                stalled += 1
                if stalled >= 400 and ginf <= 1e-10:
                    break
    return x


def test_criterion_1_closed_form_matches_descent_oracle(announce, instance_factory):
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    worst_dist = 0.0
    worst_foc = 0.0
    for _ in range(50):
        spec, pts, g = instance_factory(rng, max_cond=3e3)
        n = len(pts)
        y = rng.uniform(-1.0, 1.0, n)
        lam = 10.0 ** rng.uniform(-4.0, 0.0)
        fit = krr_fit(DataSet(pts, y), lam, spec, gram_matrix=g)
        foc = float(
            np.max(np.abs((g.entries + n * lam * np.eye(n)) @ fit.coeffs - y))
        )
        oracle = RepresenterFunction(
            kernel=spec, anchors=pts, coeffs=descent_fit_coeffs(g.entries, y, lam)
        )
        worst_dist = max(worst_dist, h_distance(fit, oracle))
        worst_foc = max(worst_foc, foc)
    elapsed = time.monotonic() - t0
    ok = worst_dist <= 1e-6 and worst_foc <= 1e-9 and elapsed < 30.0
    announce(
        f"criterion 1 - closed-form fit vs descent oracle, 50 instances: {verdict(ok)} "
        f"[max H-distance {worst_dist:.2e} <= 1e-06, max first-order residual "
        f"{worst_foc:.2e} <= 1e-09, {elapsed:.1f}s < 30s]"
    )
    assert worst_dist <= 1e-6
    assert worst_foc <= 1e-9
    assert elapsed < 30.0


def test_criterion_2_minimal_norm_equivalences(announce, instance_factory):
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    worst_resid = 0.0
    worst_orth = 0.0
    worst_excess = -math.inf
    comparisons = 0
    for _ in range(50):
        spec, pts, g = instance_factory(rng, max_cond=1e3)
        n = len(pts)
        y = rng.uniform(-1.0, 1.0, n)
        fbar = min_norm_interpolant(pts, y, spec, gram_matrix=g)
        worst_resid = max(worst_resid, float(np.max(np.abs(evaluate(fbar, pts) - y))))
        op = EvaluationOperator(spec, pts)
        norm_fbar = rkhs_norm(fbar)
        lo = pts.points.min(axis=0) - 0.5
        hi = pts.points.max(axis=0) + 0.5
        for j in range(20):
            extra = PointSet(rng.uniform(lo, hi, (int(rng.integers(1, 4)), pts.dim)))
            h = ker_p_sample(op, extra, seed=j)
            norm_h = rkhs_norm(h)
            if norm_h > 0 and norm_fbar > 0:
                rel = abs(inner_product(fbar, h)) / (norm_fbar * norm_h)
                worst_orth = max(worst_orth, rel)
            if j < 2:
                # fbar + h interpolates the same values; it must not be shorter
                competitor = rkhs_norm(combine(fbar, h, 1.0, 1.0))
                worst_excess = max(worst_excess, norm_fbar - competitor)
                comparisons += 1
    elapsed = time.monotonic() - t0
    ok = (
        worst_resid <= 1e-8
        and worst_orth <= 1e-8
        and worst_excess <= 1e-10
        and comparisons == 100
        and elapsed < 30.0
    )
    announce(
        f"criterion 2 - minimal-norm interpolant equivalences, 50 instances: {verdict(ok)} "
        f"[max interpolation residual {worst_resid:.2e} <= 1e-08, max relative "
        f"orthogonality defect {worst_orth:.2e} <= 1e-08, max norm excess over "
        f"{comparisons} competitors {worst_excess:.2e} <= 1e-10, {elapsed:.1f}s < 30s]"
    )
    assert worst_resid <= 1e-8
    assert worst_orth <= 1e-8
    assert worst_excess <= 1e-10
    assert comparisons == 100
    assert elapsed < 30.0


THM2_POINTS = PointSet(np.linspace(0.0, 12.0, 25).reshape(-1, 1))
THM2_TARGET = RepresenterFunction(
    kernel=KernelSpec.gaussian(0.35),
    anchors=PointSet([[1.0], [3.5], [6.0], [8.5], [11.0]]),
    coeffs=np.array([1.0, -0.8, 0.6, -1.2, 0.9]),
)


def test_criterion_3_vanishing_noise_convergence(announce):
    t0 = time.monotonic()
    report = run_thm2(
        pts=THM2_POINTS,
        f_tilde=THM2_TARGET,
        noise=NoiseProcess(kind="uniform", b_max=1.0),
        schedule=Schedule(lambda0=1.0, exponent=1.0),
        t_grid=[1, 10, 100, 1000, 10000],
        trials=20,
        seed=303,
    )
    assert not report.flagged()
    worst_gap = -math.inf
    worst_decomp = 0.0
    for row in report.rows:
        worst_gap = max(
            worst_gap, row.h_distance - (row.shrinkage_term + row.noise_bound)
        )
        worst_decomp = max(worst_decomp, row.decomp_residual)
    meds = report.medians()
    ratio = meds[10000] / meds[1]
    elapsed = time.monotonic() - t0
    ok = worst_gap <= 1e-8 and worst_decomp <= 1e-8 and ratio <= 0.05 and elapsed < 60.0
    announce(
        f"criterion 3 - vanishing-noise convergence and bound, 100 rows: {verdict(ok)} "
        f"[max (h - shrinkage - noise) {worst_gap:.2e} <= 1e-08, max decomposition "
        f"residual {worst_decomp:.2e} <= 1e-08, median ratio t=1e4/t=1 {ratio:.4f} "
        f"<= 0.05, {elapsed:.1f}s < 60s]"
    )
    assert worst_gap <= 1e-8
    assert worst_decomp <= 1e-8
    assert ratio <= 0.05
    assert elapsed < 60.0


THM1_TARGET = RepresenterFunction(
    kernel=KernelSpec.gaussian(0.8),
    anchors=PointSet([[0.5], [1.5], [2.5], [3.5]]),
    coeffs=np.array([0.8, 1.0, 1.0, 0.7]),
)


def test_criterion_4_growing_sample_trend(announce):
    t0 = time.monotonic()
    dist = DataDistribution(
        lo=np.array([0.0]),
        hi=np.array([4.0]),
        target=THM1_TARGET,
        noise=NoiseProcess(kind="uniform", b_max=0.5),
    )
    n_grid = [32, 64, 128, 256, 512, 1024, 2048]
    report = run_thm1(
        dist=dist,
        schedule=Schedule(lambda0=0.5, exponent=0.3),
        n_grid=n_grid,
        trials=10,
        seed=777,
    )
    assert not report.flagged()
    meds = report.medians()
    ratio = meds[2048] / meds[32]
    pn = [report.rows[gi * 10].p_n for gi in range(len(n_grid))]
    decreasing = all(b < a for a, b in zip(pn, pn[1:]))
    elapsed = time.monotonic() - t0
    ok = ratio <= 0.5 and decreasing and elapsed < 300.0
    announce(
        f"criterion 4 - growing-sample convergence trend, N=32..2048: {verdict(ok)} "
        f"[median ratio N=2048/N=32 {ratio:.3f} <= 0.5, p_N column strictly "
        f"decreasing: {decreasing}, {elapsed:.1f}s < 300s]"
    )
    assert ratio <= 0.5
    assert decreasing
    assert elapsed < 300.0


def test_criterion_5_spectral_filter_bound(announce, psd_factory):
    rng = np.random.default_rng(505)
    lams = (1e-3, 1e-1, 1.0)
    worst_violation = -math.inf
    for _ in range(100):
        n = int(rng.integers(2, 51))
        g = psd_factory(rng, n)
        for lam in lams:
            violation = float(np.max(filter_gains(g, lam))) - filter_gain_bound(n, lam)
            worst_violation = max(worst_violation, violation)
    worst_eq_gap = 0.0
    for lam in lams:
        n = int(rng.integers(2, 51))
        g = psd_factory(rng, n, forced_eigenvalue=n * lam)
        gap = abs(float(np.max(filter_gains(g, lam))) - filter_gain_bound(n, lam))
        worst_eq_gap = max(worst_eq_gap, gap)
    ok = worst_violation <= 1e-10 and worst_eq_gap <= 1e-9
    announce(
        f"criterion 5 - spectral filter gain bound, 100 matrices x 3 lambdas: "
        f"{verdict(ok)} [max excess over sqrt(N)/(2 sqrt(lam)) {worst_violation:.2e} "
        f"<= 1e-10, equality gap at manufactured eigenvalue N*lam {worst_eq_gap:.2e} "
        f"<= 1e-09]"
    )
    assert worst_violation <= 1e-10
    assert worst_eq_gap <= 1e-9


def test_criterion_6_formula_reproduction(announce):
    def params(c=1.0, kappa=1.0, m=1.0, n=100, lam=0.01, eps=1.0):
        return StabilityParams(c=c, kappa=kappa, m=m, n=n, lam=lam, eps=eps)

    op_identity = EvaluationOperator(KernelSpec.gaussian(1.0), PointSet([[0.0], [1000.0]]))
    op_ones = EvaluationOperator(KernelSpec.gaussian(1.0), PointSet([[0.0], [0.0]]))
    checks = [
        ("beta C=1 kappa=1 N=100 lam=0.01", beta_stability(params()), 1.0),
        ("beta C=2 kappa=1 N=1 lam=4", beta_stability(params(c=2.0, n=1, lam=4.0)), 1.0),
        (
            "p_N M=1 N=8 beta=0 eps=1",
            stability_probability(params(n=8), 0.0),
            1.0,
        ),
        (
            "p_N combined M=1 C=1 kappa=1 N=1e6 lam=0.1 eps=0.5",
            stability_probability_combined(params(n=10**6, lam=0.1, eps=0.5)),
            2.592e-3,
        ),
        ("delta eps=2 lam=1", variance_radius(2.0, 1.0), 2.0),
        ("delta eps=lam/2", variance_radius(0.15, 0.3), 1.0),
        ("eps_N eta=2 lam=2", eps_for_target(2.0, 2.0), 1.0),
        ("sigma x_max=1", sigma_admissible_ls(1.0), 2.0),
        ("sigma x_max=0.5", sigma_admissible_ls(0.5), 1.0),
        ("operator norm bound G=I", operator_norm_bound_p(op_identity), 1.0),
        ("operator norm bound G=ones", operator_norm_bound_p(op_ones), math.sqrt(2.0)),
        ("filter argmax N=4 lam=1", filter_max(4, 1.0)[0], 4.0),
        ("filter max N=4 lam=1", filter_max(4, 1.0)[1], 1.0),
        ("filter argmax N=1 lam=0.25", filter_max(1, 0.25)[0], 0.25),
        ("filter max N=1 lam=0.25", filter_max(1, 0.25)[1], 1.0),
        ("noise bound N=1 t=1 lam=0.25 b=1", noise_operator_bound(1, 1.0, 0.25, 1.0), 1.0),
    ]
    failures = []
    worst_rel = 0.0
    for name, got, want in checks:
        rel = abs(got - want) / abs(want)
        worst_rel = max(worst_rel, rel)
        if rel > 1e-12:
            failures.append(f"{name}: got {got!r}, want {want!r}")
    zero_ok = noise_operator_bound(3, 2.0, 0.5, 0.0) == 0.0
    ok = not failures and zero_ok
    announce(
        f"criterion 6 - formula plug-in reproduction, {len(checks) + 1} values: "
        f"{verdict(ok)} [max relative error {worst_rel:.2e} <= 1e-12"
        + (f", failures: {failures}" if failures else "")
        + "]"
    )
    assert zero_ok
    assert not failures


def _write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def test_criterion_7_experiment_determinism(announce, tmp_path):
    thm2_cfg = {
        "points": [[x] for x in np.linspace(0.0, 2.0, 8)],
        "f_tilde": {
            "kernel": {"kind": "gaussian", "width": 0.7},
            "anchors": [[0.5], [1.5]],
            "coeffs": [1.0, -0.5],
        },
        "noise": {"kind": "uniform", "b_max": 0.5},
        "schedule": {"family": "power", "lambda0": 0.5, "exponent": 1.0},
        "t_grid": [1, 10, 100],
        "trials": 3,
        "seed": 11,
        "output": str(tmp_path / "t2"),
    }
    thm1_cfg = {
        "distribution": {
            "box": {"lo": [0.0], "hi": [2.0]},
            "target": thm2_cfg["f_tilde"],
            "noise": {"kind": "uniform", "b_max": 0.25},
        },
        "schedule": {"family": "power", "lambda0": 0.5, "exponent": 0.3},
        "n_grid": [8, 16, 32],
        "trials": 3,
        "seed": 11,
        "output": str(tmp_path / "t1"),
    }
    problems = []
    for command, cfg, prefix in (("thm2", thm2_cfg, "t2"), ("thm1", thm1_cfg, "t1")):
        cfg_path = _write_json(tmp_path / f"{command}.json", cfg)
        assert cli_main([command, "--config", cfg_path]) == 0
        csv1 = (tmp_path / f"{prefix}.csv").read_bytes()
        sum1 = (tmp_path / f"{prefix}.summary.json").read_bytes()
        assert cli_main([command, "--config", cfg_path]) == 0
        if (tmp_path / f"{prefix}.csv").read_bytes() != csv1:
            problems.append(f"{command} CSV not reproducible")
        if (tmp_path / f"{prefix}.summary.json").read_bytes() != sum1:
            problems.append(f"{command} summary not reproducible")
        assert cli_main([command, "--config", cfg_path, "--seed", "12"]) == 0
        lines1 = csv1.decode().splitlines()
        lines2 = (tmp_path / f"{prefix}.csv").read_text().splitlines()
        if len(lines1) != len(lines2) or lines1[0] != lines2[0]:
            problems.append(f"{command} seed change altered the schema or row count")
        same_grid = all(
            a.split(",")[:2] == b.split(",")[:2] for a, b in zip(lines1[1:], lines2[1:])
        )
        if not same_grid:
            problems.append(f"{command} seed change altered the grid columns")
        if [l.split(",")[4] for l in lines1[1:]] == [l.split(",")[4] for l in lines2[1:]]:
            problems.append(f"{command} seed change left every distance identical")
    ok = not problems
    announce(
        f"criterion 7 - experiment command determinism (thm1, thm2): {verdict(ok)} "
        f"[byte-identical reruns, seed change moves distances only"
        + (f"; problems: {problems}" if problems else "")
        + "]"
    )
    assert not problems


def test_criterion_8_uniform_stability_spot_check(announce):
    rng = np.random.default_rng(808)
    kernel = KernelSpec.gaussian(0.6)
    n, lam = 40, 0.1
    worst_ratio = 0.0
    for _ in range(20):
        x = rng.uniform(0.0, 3.0, (n, 1))
        y = rng.uniform(-1.0, 1.0, n)
        fit = krr_fit(DataSet(PointSet(x), y), lam, kernel)
        x2, y2 = x.copy(), y.copy()
        j = int(rng.integers(n))
        x2[j] = rng.uniform(0.0, 3.0)
        y2[j] = rng.uniform(-1.0, 1.0)
        fit2 = krr_fit(DataSet(PointSet(x2), y2), lam, kernel)
        px = rng.uniform(0.0, 3.0, (200, 1))
        py = rng.uniform(-1.0, 1.0, 200)
        v1 = evaluate(fit, px)
        v2 = evaluate(fit2, px)
        x_max = float(max(np.max(np.abs(v1 - py)), np.max(np.abs(v2 - py))))
        c = sigma_admissible_ls(x_max)
        beta = beta_stability(
            StabilityParams(c=c, kappa=1.0, m=1.0, n=n, lam=lam, eps=1.0)
        )
        diffs = np.abs((v1 - py) ** 2 - (v2 - py) ** 2)
        worst_ratio = max(worst_ratio, float(np.max(diffs)) / beta)
    ok = worst_ratio <= 1.0
    announce(
        f"criterion 8 - uniform stability spot-check, 20 replacements x 200 probes: "
        f"{verdict(ok)} [max |loss difference| / beta {worst_ratio:.3f} <= 1]"
    )
    assert worst_ratio <= 1.0
