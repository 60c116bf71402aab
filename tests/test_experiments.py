"""Harness-level tests: noise processes, dataset sampling, the two sweep
drivers (row seeding, CSV schema, determinism, bound columns) and rate
estimation."""

import json
import math
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

from krstab.cli import _validate_config
from krstab.experiments import (
    CSV_HEADER,
    DataDistribution,
    ExperimentReport,
    NoiseProcess,
    ReportRow,
    default_c_bound,
    default_m_bound,
    estimate_rate,
    run_thm1,
    run_thm2,
    sample_dataset,
)
from krstab.kernels import GramMatrix, KernelSpec, PointSet, gram
from krstab.linalg import DiagnosticsError, regularized_solve
from krstab.operators import shrinkage_term
from krstab.rkhs import RepresenterFunction, evaluate, rkhs_norm
from krstab.rng import SplitMix64, mix64
from krstab.solver import DataSet, krr_fit, min_norm_interpolant
from krstab.stability import Schedule
from test_rkhs import combine_oracle

KERNEL = KernelSpec.gaussian(0.7)
DOCS = Path(__file__).resolve().parents[1] / "docs" / "configs"


def make_target(kernel=KERNEL):
    return RepresenterFunction(
        kernel=kernel,
        anchors=PointSet([[0.5], [1.5]]),
        coeffs=np.array([1.0, -0.5]),
    )


def make_dist(b_max=0.25, kind="uniform", sd=None):
    return DataDistribution(
        lo=np.array([0.0]),
        hi=np.array([2.0]),
        target=make_target(),
        noise=NoiseProcess(kind=kind, b_max=b_max, sd=sd),
    )


class TestNoiseProcess:
    @pytest.mark.parametrize(
        "proc",
        [
            NoiseProcess(kind="uniform", b_max=0.5),
            NoiseProcess(kind="rademacher", b_max=0.5),
            NoiseProcess(kind="truncated_gaussian", b_max=0.5, sd=0.4),
        ],
    )
    def test_bounded_and_deterministic(self, proc):
        a = proc.sample(64, seed=9)
        assert a.shape == (64,)
        assert np.all(np.abs(a) <= proc.b_max)
        assert np.array_equal(a, proc.sample(64, seed=9))
        assert not np.array_equal(a, proc.sample(64, seed=10))

    def test_zero_amplitude_shortcut(self):
        for kind, sd in [("uniform", None), ("rademacher", None), ("truncated_gaussian", 1.0)]:
            assert np.array_equal(
                NoiseProcess(kind=kind, b_max=0.0, sd=sd).sample(5, seed=1), np.zeros(5)
            )

    def test_rademacher_support(self):
        a = NoiseProcess(kind="rademacher", b_max=0.3).sample(200, seed=3)
        assert set(np.unique(a)) == {-0.3, 0.3}

    def test_uniform_moments(self):
        b = 0.5
        a = NoiseProcess(kind="uniform", b_max=b).sample(20000, seed=11)
        assert abs(np.mean(a)) < 0.02
        assert abs(np.var(a) - b * b / 3.0) < 0.01

    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
    def test_batched_draws_match_scalar_stream(self, seed):
        stream = SplitMix64(seed)
        uniform = np.array([-0.7 + 1.4 * stream.next_double() for _ in range(300)])
        got = NoiseProcess(kind="uniform", b_max=0.7).sample(300, seed)
        assert got.tobytes() == uniform.tobytes()
        stream = SplitMix64(seed)
        signs = np.array([0.7 if stream.next_u64() >> 63 else -0.7 for _ in range(300)])
        got = NoiseProcess(kind="rademacher", b_max=0.7).sample(300, seed)
        assert got.tobytes() == signs.tobytes()

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown noise kind"):
            NoiseProcess(kind="laplace", b_max=1.0)
        with pytest.raises(ValueError):
            NoiseProcess(kind="uniform", b_max=-1.0)
        with pytest.raises(ValueError, match="sd"):
            NoiseProcess(kind="truncated_gaussian", b_max=1.0)
        with pytest.raises(ValueError, match="no sd"):
            NoiseProcess(kind="uniform", b_max=1.0, sd=0.5)
        with pytest.raises(ValueError):
            NoiseProcess(kind="uniform", b_max=1.0).sample(-1, seed=0)

    def test_hopeless_rejection_raises(self):
        proc = NoiseProcess(kind="truncated_gaussian", b_max=1e-9, sd=1e6)
        with pytest.raises(DiagnosticsError, match="rejection"):
            proc.sample(1, seed=0)


class TestSampling:
    def test_dataset_deterministic(self):
        dist = make_dist()
        a, a_values = sample_dataset(dist, 12, seed=5)
        b, b_values = sample_dataset(dist, 12, seed=5)
        assert np.array_equal(a.pts.points, b.pts.points)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a_values, b_values)
        c, _ = sample_dataset(dist, 12, seed=6)
        assert not np.array_equal(a.pts.points, c.pts.points)

    def test_points_inside_box(self):
        data, _ = sample_dataset(make_dist(), 100, seed=2)
        assert np.all(data.pts.points >= 0.0) and np.all(data.pts.points <= 2.0)

    def test_noiseless_labels_equal_target(self):
        dist = make_dist(b_max=0.0)
        data, values = sample_dataset(dist, 20, seed=4)
        assert np.array_equal(data.labels, evaluate(dist.target, data.pts))
        assert np.array_equal(values, data.labels)

    def test_substream_layout(self):
        # inputs come from substream 0 of the seed, noise from substream 1
        dist = make_dist()
        data, values = sample_dataset(dist, 7, seed=42)
        xs = dist.sample_x(7, SplitMix64(mix64(42, 0)))
        assert np.array_equal(data.pts.points, xs.points)
        b = dist.noise.sample(7, mix64(42, 1))
        assert np.array_equal(values, evaluate(dist.target, xs))
        assert np.allclose(data.labels, values + b, rtol=0, atol=0)

    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
    def test_points_match_scalar_stream(self, seed):
        dist = DataDistribution(
            lo=np.array([0.0, -1.0, 2.0]),
            hi=np.array([2.0, 1.0, 2.5]),
            target=RepresenterFunction(KERNEL, PointSet([[0.5, 0.0, 2.1]]), [1.0]),
            noise=NoiseProcess(kind="uniform", b_max=0.1),
        )
        stream = SplitMix64(seed)
        u = np.array([[stream.next_double() for _ in range(3)] for _ in range(50)])
        expect = dist.lo + u * (dist.hi - dist.lo)
        got = dist.sample_x(50, SplitMix64(seed)).points
        assert got.tobytes() == expect.tobytes()

    def test_distribution_validation(self):
        with pytest.raises(ValueError, match="lo < hi"):
            DataDistribution(
                lo=np.array([1.0]),
                hi=np.array([1.0]),
                target=make_target(),
                noise=NoiseProcess(kind="uniform", b_max=0.0),
            )
        with pytest.raises(ValueError, match="dimension"):
            DataDistribution(
                lo=np.array([0.0, 0.0]),
                hi=np.array([1.0, 1.0]),
                target=make_target(),
                noise=NoiseProcess(kind="uniform", b_max=0.0),
            )
        with pytest.raises(ValueError):
            sample_dataset(make_dist(), 0, seed=1)


def small_thm2(trials=3, b_max=0.5, seed=17, t_grid=(1, 10, 100)):
    pts = PointSet(np.linspace(0.0, 2.0, 8).reshape(-1, 1))
    return run_thm2(
        pts=pts,
        f_tilde=make_target(),
        noise=NoiseProcess(kind="uniform", b_max=b_max),
        schedule=Schedule(lambda0=0.5, exponent=1.0),
        t_grid=list(t_grid),
        trials=trials,
        seed=seed,
    )


class TestRunThm2:
    def test_shape_and_seed_formula(self):
        rep = small_thm2()
        assert len(rep.rows) == 9
        for gi in range(3):
            for trial in range(3):
                row = rep.rows[gi * 3 + trial]
                assert row.trial == trial
                assert row.seed == mix64(17, gi * 2**32 + trial)

    def test_rows_satisfy_error_bound(self):
        for row in small_thm2().rows:
            assert not row.flag
            assert row.h_distance <= row.shrinkage_term + row.noise_bound + 1e-8
            assert row.decomp_residual <= 1e-8

    def test_pure_shrinkage_when_noiseless(self):
        rep = small_thm2(b_max=0.0, trials=2)
        for row in rep.rows:
            assert row.noise_bound == 0.0
            assert abs(row.h_distance - row.shrinkage_term) <= 1e-8 * (1 + row.shrinkage_term)

    def test_shrinkage_column_matches_operator_route(self):
        rep = small_thm2(trials=1)
        pts = PointSet(np.linspace(0.0, 2.0, 8).reshape(-1, 1))
        g = gram(KERNEL, pts)
        values = evaluate(make_target(), pts)
        fbar = min_norm_interpolant(pts, values, KERNEL, gram_matrix=g)
        for row in rep.rows:
            shrink_solve = regularized_solve(g, g.n * row.lam, fbar.coeffs)
            expect = shrinkage_term(g, shrink_solve, row.lam)
            assert abs(row.shrinkage_term - expect) <= 1e-12 * (1 + expect)

    def test_csv_schema_and_determinism(self):
        rep = small_thm2()
        text = rep.to_csv_text()
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(rep.rows)
        assert text.endswith("\n")
        # integer columns render as plain integers, reals in round-trip form
        first = lines[1].split(",")
        assert first[0] == "1" and first[2] == "0"
        assert first[1] == repr(0.5)
        assert first[3] == str(mix64(17, 0))
        assert small_thm2().to_csv_text() == text

    def test_seeds_stable_under_grid_growth(self):
        # Exact distance equality holds at this size (n = 8) only; see
        # test_docs_config_rows_stable_under_grid_growth for n = 25.
        small = small_thm2(trials=2)
        big = small_thm2(trials=4, t_grid=(1, 10, 100, 1000))
        by_key = {(r.index_var, r.trial): r for r in big.rows}
        for r in small.rows:
            other = by_key[(r.index_var, r.trial)]
            assert other.seed == r.seed
            assert other.h_distance == r.h_distance

    def test_docs_config_rows_stable_under_grid_growth(self):
        # The sample thm2 config (n = 25) with a sixth t: every existing row
        # keeps its seed, and its distance up to the last bits, because BLAS
        # may round a column differently in a wider block.
        cfg = json.loads((DOCS / "thm2.json").read_text(encoding="utf-8"))
        args = _validate_config("thm2", cfg)
        t_grid = args.pop("t_grid")
        small = run_thm2(t_grid=t_grid, **args)
        big = run_thm2(t_grid=t_grid + [10 * t_grid[-1]], **args)
        assert len(big.rows) == len(small.rows) + cfg["trials"]
        by_key = {(r.index_var, r.trial): r for r in big.rows}
        for r in small.rows:
            other = by_key[(r.index_var, r.trial)]
            assert other.seed == r.seed
            assert other.h_distance == pytest.approx(r.h_distance, rel=1e-12, abs=0)

    def test_medians_follow_grid_order(self):
        rep = small_thm2()
        assert list(rep.medians().keys()) == [1, 10, 100]
        assert all(v > 0 for v in rep.medians().values())

    def test_metadata_echo(self):
        rep = small_thm2()
        md = rep.metadata
        assert md["command"] == "thm2" and md["index_name"] == "t"
        assert md["rng"] == "splitmix64"
        assert md["schedule_valid"] is True
        assert md["trials"] == 3 and md["seed"] == 17

    def test_diagnostics_fail_the_run(self, monkeypatch):
        # Every row of the run, over all t, is fitted as one block against
        # G, so a diagnostic raised by the run's one fit call fails the run
        # rather than flagging rows.  The failure is synthetic:
        # min_norm_interpolant computes and PSD-checks G's eigendecomposition
        # before the block, so no real diagnostic of G can reach it.
        import krstab.experiments as exp

        calls = []

        def failing(*args, **kwargs):
            calls.append(args[0].labels.shape[1])
            raise DiagnosticsError("synthetic failure")

        monkeypatch.setattr(exp, "krr_fit", failing)
        with pytest.raises(DiagnosticsError, match="synthetic failure"):
            small_thm2(trials=2, t_grid=(1, 10))
        assert calls == [4]

    def test_input_validation(self):
        pts = PointSet([[0.0], [1.0]])
        noise = NoiseProcess(kind="uniform", b_max=0.1)
        sched = Schedule(lambda0=1.0, exponent=1.0)
        target_2d = RepresenterFunction(
            kernel=KERNEL, anchors=PointSet([[0.0, 0.0]]), coeffs=np.array([1.0])
        )
        with pytest.raises(ValueError, match="dimension"):
            run_thm2(pts, target_2d, noise, sched, [1], trials=1, seed=0)
        with pytest.raises(ValueError, match="t_grid"):
            run_thm2(pts, make_target(), noise, sched, [], trials=1, seed=0)
        with pytest.raises(ValueError, match="t_grid"):
            run_thm2(pts, make_target(), noise, sched, [1, -2], trials=1, seed=0)
        with pytest.raises(ValueError, match="trials"):
            run_thm2(pts, make_target(), noise, sched, [1], trials=0, seed=0)
        with pytest.raises(ValueError, match="eta"):
            run_thm2(pts, make_target(), noise, sched, [1], trials=1, seed=0, eta=0.0)

    @pytest.mark.parametrize(
        "t_count,repeated,trials",
        [(2, False, 7), (5, False, 7), (5, True, 7), (5, False, 1)],
        ids=["2", "5", "5-repeated", "5-one-trial"],
    )
    def test_one_factorization_per_run(self, monkeypatch, t_count, repeated, trials):
        # Every row asks its questions of one Gram matrix: one kernel matrix
        # for G, one for the target's norm and one for its values on the
        # points, and one factorization, however many t values and trials,
        # and whether or not design points repeat (G is then singular).  The
        # run makes three solves whatever the number of t values and trials:
        # the block of shrinkage solves, the block of fits and the block of
        # residual noise solves, each with one shift per column, and one
        # h_distance call takes the distances of every row.
        homes = {
            "kernel_matrix": "krstab.kernels",
            "sym_eigen": "krstab.linalg",
            "regularized_solve": "krstab.linalg",
            "h_distance": "krstab.rkhs",
        }
        calls = dict.fromkeys([*homes, "GramMatrix"], 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name, home in homes.items():
            real = getattr(sys.modules[home], name)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("krstab") and getattr(mod, name, None) is real:
                    monkeypatch.setattr(mod, name, counted(name, real))
        monkeypatch.setattr(GramMatrix, "__init__", counted("GramMatrix", GramMatrix.__init__))
        rng = np.random.default_rng(7)
        target = RepresenterFunction(
            kernel=KernelSpec.gaussian(0.5),
            anchors=PointSet(rng.uniform(0.0, 5.0, (5, 4))),
            coeffs=rng.uniform(-1.0, 1.0, 5),
        )
        rows = rng.uniform(0.0, 5.0, (200, 4))
        if repeated:
            rows[199], rows[150] = rows[0], rows[7]
        pts, noise = PointSet(rows), NoiseProcess(kind="uniform", b_max=1.0)
        rep = run_thm2(
            pts=pts,
            f_tilde=target,
            noise=noise,
            schedule=Schedule(lambda0=1.0, exponent=1.0),
            t_grid=[10.0**k for k in range(t_count)],
            trials=trials,
            seed=5,
        )
        assert len(rep.rows) == trials * t_count and not rep.flagged()
        assert calls == {
            "kernel_matrix": 3,
            "sym_eigen": 1,
            "regularized_solve": 3,
            "h_distance": 1,
            "GramMatrix": 1,
        }
        if repeated:
            # The distances over the repeated design match the expansion with
            # byte-equal anchors merged, whose norm builds its own kernel matrix.
            g = gram(target.kernel, pts)
            values = evaluate(target, pts)
            fbar = min_norm_interpolant(pts, values, target.kernel, gram_matrix=g)
            for row in rep.rows:
                labels = values + noise.sample(len(pts), row.seed) / row.index_var
                f = krr_fit(DataSet(pts, labels), row.lam, target.kernel, gram_matrix=g)
                expect = rkhs_norm(combine_oracle(f, fbar, 1.0, -1.0))
                assert abs(row.h_distance - expect) <= 1e-12 * expect


def small_thm1(trials=3, seed=23, n_grid=(8, 16, 32), exponent=0.3):
    return run_thm1(
        dist=make_dist(b_max=0.25),
        schedule=Schedule(lambda0=0.5, exponent=exponent),
        n_grid=list(n_grid),
        trials=trials,
        seed=seed,
    )


class TestRunThm1:
    def test_shape_columns_and_seeds(self):
        rep = small_thm1()
        assert len(rep.rows) == 9
        for gi, n in enumerate((8, 16, 32)):
            for trial in range(3):
                row = rep.rows[gi * 3 + trial]
                assert row.index_var == n
                assert row.seed == mix64(23, gi * 2**32 + trial)
                assert math.isnan(row.shrinkage_term) and math.isnan(row.noise_bound)
                assert math.isfinite(row.h_distance) and row.h_distance >= 0
                assert not row.flag

    def test_probability_column_decreases_on_valid_schedule(self):
        rep = small_thm1()
        pn = [rep.rows[gi * 3].p_n for gi in range(3)]
        assert pn[0] > pn[1] > pn[2]

    def test_lambda_follows_schedule(self):
        rep = small_thm1()
        sched = Schedule(lambda0=0.5, exponent=0.3)
        for row in rep.rows:
            assert row.lam == sched.value(row.index_var)

    def test_csv_deterministic(self):
        assert small_thm1().to_csv_text() == small_thm1().to_csv_text()

    def test_metadata_echo(self):
        md = small_thm1(exponent=0.5).metadata
        assert md["command"] == "thm1" and md["index_name"] == "n"
        assert md["schedule_valid"] is False
        assert md["m_bound"] > 0 and md["c_bound"] == 4.0 * md["m_bound"]

    def test_input_validation(self):
        dist = make_dist()
        sched = Schedule(lambda0=1.0, exponent=0.25)
        with pytest.raises(ValueError, match="n_grid"):
            run_thm1(dist, sched, [], trials=1, seed=0)
        with pytest.raises(ValueError, match="n_grid"):
            run_thm1(dist, sched, [4, 0], trials=1, seed=0)
        with pytest.raises(ValueError, match="trials"):
            run_thm1(dist, sched, [4], trials=-1, seed=0)


class TestBounds:
    def test_default_bounds(self):
        f = make_target()
        m = default_m_bound(f, 1.0, 0.25)
        assert abs(m - (rkhs_norm(f) + 0.25)) < 1e-12
        assert default_c_bound(m) == 4.0 * m


def synthetic_report(pairs, trials=2):
    rows = []
    for idx, dist in pairs:
        for trial in range(trials):
            rows.append(
                ReportRow(
                    index_var=idx,
                    lam=1.0,
                    trial=trial,
                    seed=0,
                    h_distance=dist,
                    shrinkage_term=math.nan,
                    noise_bound=math.nan,
                    beta=1.0,
                    p_n=1.0,
                )
            )
    return ExperimentReport(rows=rows, metadata={})


class TestRateEstimate:
    def test_exact_power_law(self):
        rep = synthetic_report([(n, 1.0 / n) for n in (10, 100, 1000, 10000)])
        est = estimate_rate(rep)
        assert abs(est.slope + 1.0) < 1e-12
        assert abs(est.r2 - 1.0) < 1e-12

    def test_constant_medians(self):
        est = estimate_rate(synthetic_report([(n, 0.25) for n in (10, 100, 1000)]))
        assert est.slope == 0.0 and est.r2 == 1.0

    def test_needs_three_grid_points(self):
        with pytest.raises(DiagnosticsError, match="at least 3"):
            estimate_rate(synthetic_report([(10, 1.0), (100, 0.1)]))

    def test_ignores_flagged_and_nonfinite_rows(self):
        rep = synthetic_report([(n, 1.0 / n) for n in (10, 100, 1000)])
        rep.rows.append(
            ReportRow(
                index_var=10,
                lam=1.0,
                trial=9,
                seed=0,
                h_distance=1e9,
                shrinkage_term=math.nan,
                noise_bound=math.nan,
                beta=1.0,
                p_n=1.0,
                flag="boom",
            )
        )
        rep.rows.append(
            ReportRow(
                index_var=100,
                lam=1.0,
                trial=9,
                seed=0,
                h_distance=math.nan,
                shrinkage_term=math.nan,
                noise_bound=math.nan,
                beta=1.0,
                p_n=1.0,
            )
        )
        assert rep.medians() == {10: 0.1, 100: 0.01, 1000: 0.001}
        assert abs(estimate_rate(rep).slope + 1.0) < 1e-12


def test_medians_match_the_statistics_module():
    # Odd, even and tied groups; an even group's median (a + b) / 2 is
    # rounded, and its middle pair may differ in magnitude by 1e18.
    rng = np.random.default_rng(21)
    groups = {
        1: [0.3, 0.1, 0.2],
        2: [0.1, 1e-17, 3.0, 0.7],
        3: [0.25, 0.25, 0.25, 0.5],
        4: [2.0, 2.0],
        5: list(rng.uniform(0.0, 1.0, 7)),
        6: list(10.0 ** rng.uniform(-16, 2, 10)),
    }
    rep = synthetic_report([(idx, v) for idx, vals in groups.items() for v in vals], trials=1)
    got = rep.medians()
    assert list(got) == list(groups)
    for idx, vals in groups.items():
        assert float(got[idx]).hex() == float(statistics.median(vals)).hex()
