"""End-to-end command line tests: config validation and exit codes, output
file contracts, byte-for-byte rerun determinism, the override flags, and the
spans the benchmark's tracer expects from each experiment command."""

import gc
import hashlib
import importlib.util
import inspect
import json
import math
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import krstab.cli as cli_module
import krstab.kernels
from krstab.cli import _validate_config, main
from krstab.experiments import NoiseProcess
from krstab.kernels import KernelSpec, PointSet, kernel_matrix
from krstab.rkhs import RepresenterFunction, evaluate
from krstab.solver import DataSet, regularized_risk
from krstab.stability import Schedule

ROOT = Path(__file__).resolve().parents[1]
GAUSS = {"kind": "gaussian", "width": 1.0}


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def fit_config(tmp_path, **overrides):
    cfg = {
        "kernel": GAUSS,
        "dataset": {"points": [[0.0]], "labels": [2.0]},
        "lambda": 1.0,
        "output": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    return cfg


def thm2_config(tmp_path, **overrides):
    cfg = {
        "points": [[x] for x in [0.0, 0.3, 0.6, 0.9, 1.2, 1.5, 1.8, 2.1]],
        "f_tilde": {
            "kernel": {"kind": "gaussian", "width": 0.7},
            "anchors": [[0.5], [1.5]],
            "coeffs": [1.0, -0.5],
        },
        "noise": {"kind": "uniform", "b_max": 0.5},
        "schedule": {"family": "power", "lambda0": 0.5, "exponent": 1.0},
        "t_grid": [1, 10, 100],
        "trials": 2,
        "seed": 5,
        "output": str(tmp_path / "exp"),
    }
    cfg.update(overrides)
    return cfg


def thm1_config(tmp_path, **overrides):
    cfg = {
        "distribution": {
            "box": {"lo": [0.0], "hi": [2.0]},
            "target": {
                "kernel": {"kind": "gaussian", "width": 0.7},
                "anchors": [[0.5], [1.5]],
                "coeffs": [1.0, -0.5],
            },
            "noise": {"kind": "uniform", "b_max": 0.25},
        },
        "schedule": {"family": "power", "lambda0": 0.5, "exponent": 0.3},
        "n_grid": [8, 16],
        "trials": 2,
        "seed": 7,
        "output": str(tmp_path / "exp"),
    }
    cfg.update(overrides)
    return cfg


class TestFit:
    def test_single_point_pinned(self, tmp_path, capsys):
        cfg = fit_config(tmp_path)
        assert main(["fit", "--config", write_config(tmp_path, cfg)]) == 0
        printed = capsys.readouterr().out
        assert f"wrote {tmp_path}/out.fit.json" in printed
        fit = json.loads((tmp_path / "out.fit.json").read_text())
        # (G + n lam I) alpha = y with G=[[1]], n=1, lam=1 -> alpha = 1
        assert fit["coeffs"] == [1.0]
        assert fit["lambda"] == 1.0
        assert fit["objective"] == 2.0  # residual^2 + lam * |f|_H^2 = 1 + 1
        assert (tmp_path / "out.residuals.csv").read_text() == "index,residual\n0,-1.0\n"

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = fit_config(
            tmp_path,
            dataset={"points": [[0.0], [0.7], [1.9]], "labels": [0.5, -0.25, 1.0]},
            **{"lambda": 0.05},
        )
        path = write_config(tmp_path, cfg)
        assert main(["fit", "--config", path]) == 0
        first = [(tmp_path / f"out{s}").read_bytes() for s in (".fit.json", ".residuals.csv")]
        assert main(["fit", "--config", path]) == 0
        second = [(tmp_path / f"out{s}").read_bytes() for s in (".fit.json", ".residuals.csv")]
        assert first == second

    def test_fit_json_holds_the_function_lambda_and_objective(self, tmp_path):
        dataset = {"points": [[0.0], [0.7], [1.9]], "labels": [0.5, -0.25, 1.0]}
        cfg = fit_config(tmp_path, dataset=dataset, **{"lambda": 0.05})
        assert main(["fit", "--config", write_config(tmp_path, cfg)]) == 0
        fit = json.loads((tmp_path / "out.fit.json").read_text())
        assert set(fit) == {"kernel", "anchors", "coeffs", "lambda", "objective"}
        assert fit["lambda"] == 0.05
        # The written function gives back the objective and the residuals bit for bit.
        f = cli_module._function({k: fit[k] for k in ("kernel", "anchors", "coeffs")}, "fit")
        data = DataSet(PointSet(dataset["points"]), dataset["labels"])
        assert fit["objective"] == regularized_risk(f, data, 0.05)
        lines = (tmp_path / "out.residuals.csv").read_text().splitlines()
        residuals = [float(line.split(",")[1]) for line in lines[1:]]
        assert residuals == (evaluate(f, data.pts) - data.labels).tolist()

    def test_dataset_csv_route(self, tmp_path):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("x1,y\n0.0,1.0\n1.0,0.0\n")
        cfg = fit_config(tmp_path, dataset_csv=str(csv_path))
        del cfg["dataset"]
        assert main(["fit", "--config", write_config(tmp_path, cfg)]) == 0
        fit = json.loads((tmp_path / "out.fit.json").read_text())
        assert len(fit["coeffs"]) == 2

    @pytest.mark.parametrize(
        "csv_text,fragment",
        [
            ("", "empty"),
            ("a,b\n0,1\n", "header"),
            ("x1,y\n0.0,1.0\n0.0,oops\n", "line 3"),
            ("x1,y\n0.0\n", "line 2"),
            ("x1,y\n0.0,inf\n", "line 2"),
            ("x1,y\n", "no data rows"),
            pytest.param(
                "x1,y\n0.0,1.0\n" + "1" * 131073 + ",0.0\n",
                "data.csv line 3: field larger than field limit",
                id="field-over-size-limit",
            ),
        ],
    )
    def test_bad_csv_reports_location(self, tmp_path, capsys, csv_text, fragment):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text(csv_text)
        cfg = fit_config(tmp_path, dataset_csv=str(csv_path))
        del cfg["dataset"]
        assert main(["fit", "--config", write_config(tmp_path, cfg)]) == 1
        assert fragment in capsys.readouterr().err

    def test_exactly_one_dataset_source(self, tmp_path, capsys):
        both = fit_config(tmp_path, dataset_csv="whatever.csv")
        assert main(["fit", "--config", write_config(tmp_path, both)]) == 1
        assert "exactly one" in capsys.readouterr().err
        neither = fit_config(tmp_path)
        del neither["dataset"]
        assert main(["fit", "--config", write_config(tmp_path, neither, "n.json")]) == 1

    def test_nonpositive_lambda_rejected(self, tmp_path, capsys):
        cfg = fit_config(tmp_path, **{"lambda": 0.0})
        assert main(["fit", "--config", write_config(tmp_path, cfg)]) == 1
        assert "lambda" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = fit_config(tmp_path, bogus=1)
        assert main(["fit", "--config", write_config(tmp_path, cfg)]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_label_count_mismatch(self, tmp_path, capsys):
        cfg = fit_config(tmp_path, dataset={"points": [[0.0], [1.0]], "labels": [1.0]})
        assert main(["fit", "--config", write_config(tmp_path, cfg)]) == 1
        assert "2 points but 1 labels" in capsys.readouterr().err

    def test_seed_flag_rejected_outside_experiments(self, tmp_path, capsys):
        cfg = fit_config(tmp_path)
        code = main(["fit", "--config", write_config(tmp_path, cfg), "--seed", "3"])
        assert code == 1
        assert "--seed does not apply" in capsys.readouterr().err


class TestInterpolate:
    def test_recovers_kernel_section(self, tmp_path):
        # values sampled from K(., 0) are interpolated by K(., 0) itself
        cfg = {
            "kernel": GAUSS,
            "dataset": {"points": [[0.0], [1.0]], "values": [1.0, math.exp(-0.5)]},
            "output": str(tmp_path / "out"),
        }
        assert main(["interpolate", "--config", write_config(tmp_path, cfg)]) == 0
        f = json.loads((tmp_path / "out.interpolant.json").read_text())
        assert abs(f["coeffs"][0] - 1.0) < 1e-10 and abs(f["coeffs"][1]) < 1e-10
        lines = (tmp_path / "out.residuals.csv").read_text().splitlines()
        assert lines[0] == "index,residual"
        assert all(abs(float(line.split(",")[1])) < 1e-10 for line in lines[1:])

    def test_inconsistent_values_exit_diagnostics(self, tmp_path, capsys):
        # duplicated point with two different values cannot be interpolated
        cfg = {
            "kernel": GAUSS,
            "dataset": {"points": [[0.0], [0.0]], "values": [0.0, 1.0]},
            "output": str(tmp_path / "out"),
        }
        assert main(["interpolate", "--config", write_config(tmp_path, cfg)]) == 3
        assert "diagnostics" in capsys.readouterr().err
        assert not (tmp_path / "out.interpolant.json").exists()


class TestExperimentCommands:
    def test_thm2_outputs_and_rerun(self, tmp_path):
        path = write_config(tmp_path, thm2_config(tmp_path))
        assert main(["thm2", "--config", path]) == 0
        names = ["exp.csv", "exp.summary.json", "exp.plot.dat"]
        first = [(tmp_path / n).read_bytes() for n in names]
        csv_lines = first[0].decode().splitlines()
        assert csv_lines[0] == (
            "index_var,lambda,trial,seed,h_distance,shrinkage_term,noise_bound,beta,p_n"
        )
        assert len(csv_lines) == 1 + 3 * 2
        summary = json.loads(first[1])
        assert summary["command"] == "thm2"
        assert summary["schedule_valid"] is True
        assert summary["row_count"] == 6
        assert summary["flagged_rows"] == []
        assert summary["rng"] == "splitmix64"
        assert summary["max_decomposition_residual"] <= 1e-8
        assert len(summary["medians"]) == 3
        plot_lines = first[2].decode().splitlines()
        assert plot_lines[0] == "# log10_index_var log10_median_h_distance"
        assert len(plot_lines) == 4
        assert main(["thm2", "--config", path]) == 0
        assert [(tmp_path / n).read_bytes() for n in names] == first

    def test_thm2_seed_override_changes_distances_only(self, tmp_path):
        base = thm2_config(tmp_path)
        path = write_config(tmp_path, base)
        assert main(["thm2", "--config", path]) == 0
        a = (tmp_path / "exp.csv").read_text().splitlines()
        assert main(["thm2", "--config", path, "--seed", "99"]) == 0
        b = (tmp_path / "exp.csv").read_text().splitlines()
        assert len(a) == len(b) and a[0] == b[0]
        dist_a = [line.split(",")[4] for line in a[1:]]
        dist_b = [line.split(",")[4] for line in b[1:]]
        assert dist_a != dist_b
        # grid and schedule columns are seed-independent
        for la, lb in zip(a[1:], b[1:]):
            assert la.split(",")[:3:2] == lb.split(",")[:3:2]

    def test_out_override_keeps_config_hash(self, tmp_path):
        cfg = thm2_config(tmp_path)
        path = write_config(tmp_path, cfg)
        assert main(["thm2", "--config", path, "--out", str(tmp_path / "a")]) == 0
        assert main(["thm2", "--config", path, "--out", str(tmp_path / "b")]) == 0
        sa = (tmp_path / "a.summary.json").read_bytes()
        sb = (tmp_path / "b.summary.json").read_bytes()
        assert sa == sb  # the hash covers the computation, not the destination

    def test_thm2_grid_must_increase(self, tmp_path, capsys):
        cfg = thm2_config(tmp_path, t_grid=[10, 10, 100])
        assert main(["thm2", "--config", write_config(tmp_path, cfg)]) == 1
        assert "strictly increasing" in capsys.readouterr().err

    def test_thm1_outputs(self, tmp_path):
        path = write_config(tmp_path, thm1_config(tmp_path))
        assert main(["thm1", "--config", path]) == 0
        summary = json.loads((tmp_path / "exp.summary.json").read_text())
        assert summary["command"] == "thm1"
        assert summary["schedule_valid"] is True
        assert summary["row_count"] == 4
        assert "max_decomposition_residual" not in summary
        assert summary["rate"] is None  # only 2 grid points
        csv_lines = (tmp_path / "exp.csv").read_text().splitlines()
        assert len(csv_lines) == 5
        assert all(line.split(",")[5] == "nan" for line in csv_lines[1:])
        assert main(["thm1", "--config", path]) == 0
        assert len((tmp_path / "exp.csv").read_text().splitlines()) == 5

    def test_thm1_invalid_schedule_still_runs(self, tmp_path):
        cfg = thm1_config(tmp_path, schedule={"family": "power", "lambda0": 0.5, "exponent": 0.5})
        assert main(["thm1", "--config", write_config(tmp_path, cfg)]) == 0
        summary = json.loads((tmp_path / "exp.summary.json").read_text())
        assert summary["schedule_valid"] is False

    def test_thm1_rate_reported_with_three_points(self, tmp_path):
        cfg = thm1_config(tmp_path, n_grid=[8, 16, 32])
        assert main(["thm1", "--config", write_config(tmp_path, cfg)]) == 0
        summary = json.loads((tmp_path / "exp.summary.json").read_text())
        rate = summary["rate"]
        assert set(rate) == {"slope", "intercept", "r2"}
        assert math.isfinite(rate["slope"])

    def test_thm1_grid_must_increase(self, tmp_path, capsys):
        cfg = thm1_config(tmp_path, n_grid=[16, 8])
        assert main(["thm1", "--config", write_config(tmp_path, cfg)]) == 1
        assert "strictly increasing" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["thm1", "thm2"])
    def test_summary_schema(self, tmp_path, command):
        # The summary is the report's metadata plus the computed keys.
        cfg = CONFIGS[command](tmp_path)
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 0
        summary = json.loads((tmp_path / "exp.summary.json").read_text())
        echoed = {
            "command",
            "index_name",
            "rng",
            "schedule",
            "schedule_valid",
            "kappa",
            "eta",
            "m_bound",
            "c_bound",
            "trials",
            "seed",
        }
        computed = {"config_sha1", "row_count", "flagged_rows", "medians", "rate"}
        if command == "thm2":
            computed.add("max_decomposition_residual")
        assert set(summary) == echoed | computed
        run = cli_module.run_thm2 if command == "thm2" else cli_module.run_thm1
        report = run(**_validate_config(command, cfg))
        assert report.metadata == {k: v for k, v in summary.items() if k not in computed}

    @pytest.mark.parametrize("command", ["thm1", "thm2"])
    def test_hopeless_noise_exits_diagnostics(self, tmp_path, capsys, command):
        noise = {"kind": "truncated_gaussian", "b_max": 1e-6, "sd": 100.0}
        if command == "thm1":
            cfg = thm1_config(tmp_path, n_grid=[8, 16, 32])
            cfg["distribution"]["noise"] = noise
        else:
            cfg = thm2_config(tmp_path, noise=noise)
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 3
        assert "rejection sampling failed" in capsys.readouterr().err
        assert list(tmp_path.glob("exp*")) == []


class TestBounds:
    def test_inline_kappa_pinned_values(self, tmp_path):
        cfg = {
            "lambda": 0.01,
            "eps": 1.0,
            "c": 1.0,
            "m": 1.0,
            "kappa": 1.0,
            "n": 100,
            "eta": 0.2,
            "t": 4.0,
            "b_max": 0.5,
            "x_max": 0.5,
            "output": str(tmp_path / "out"),
        }
        assert main(["bounds", "--config", write_config(tmp_path, cfg)]) == 0
        res = json.loads((tmp_path / "out.bounds.json").read_text())
        assert res["beta"] == 1.0
        assert res["p_n"] == (64.0 * 100.0 + 8.0) / 100.0
        assert abs(res["p_n_combined"] - res["p_n"]) < 1e-12 * res["p_n"]
        assert res["p_n_vacuous"] is True
        assert res["sample_size_ok"] is True
        assert abs(res["variance_radius"] - math.sqrt(200.0)) < 1e-12
        assert res["filter_argmax"] == 1.0  # n * lam
        assert res["filter_max_value"] == 2500.0  # n / (4 lam)
        assert res["filter_gain_bound"] == 50.0  # sqrt(n) / (2 sqrt(lam))
        assert res["noise_bound"] == 0.625  # (1 / (n t)) * gain_bound * b_max sqrt(n)
        assert res["eps_for_target"] == 0.2**2 * 0.01 / 8.0
        assert res["sigma_admissible"] == 1.0
        assert "operator_norm_bound" not in res

    def test_gram_route(self, tmp_path):
        cfg = {
            "lambda": 0.5,
            "eps": 0.5,
            "c": 1.0,
            "m": 1.0,
            "kernel": GAUSS,
            "points": [[0.0], [1.0]],
            "output": str(tmp_path / "out"),
        }
        assert main(["bounds", "--config", write_config(tmp_path, cfg)]) == 0
        res = json.loads((tmp_path / "out.bounds.json").read_text())
        assert res["kappa"] == 1.0 and res["n"] == 2
        assert abs(res["operator_norm_bound"] - math.sqrt(1 + math.exp(-0.5))) < 1e-12
        assert abs(res["gram_min_eigenvalue"] - (1 - math.exp(-0.5))) < 1e-12

    def test_kappa_and_gram_are_exclusive(self, tmp_path, capsys):
        cfg = {
            "lambda": 0.5,
            "eps": 0.5,
            "c": 1.0,
            "m": 1.0,
            "kappa": 1.0,
            "n": 4,
            "kernel": GAUSS,
            "points": [[0.0]],
            "output": str(tmp_path / "out"),
        }
        assert main(["bounds", "--config", write_config(tmp_path, cfg)]) == 1
        assert "exactly one" in capsys.readouterr().err

    def test_inline_kappa_requires_n(self, tmp_path, capsys):
        cfg = {
            "lambda": 0.5,
            "eps": 0.5,
            "c": 1.0,
            "m": 1.0,
            "kappa": 1.0,
            "output": str(tmp_path / "out"),
        }
        assert main(["bounds", "--config", write_config(tmp_path, cfg)]) == 1
        assert "n is required" in capsys.readouterr().err


class TestSpectrum:
    def test_profiles(self, tmp_path):
        cfg = {
            "kernel": GAUSS,
            "points": [[0.0], [0.8], [1.6]],
            "lambdas": [0.1, 1.0],
            "output": str(tmp_path / "out"),
        }
        path = write_config(tmp_path, cfg)
        assert main(["spectrum", "--config", path]) == 0
        res = json.loads((tmp_path / "out.spectrum.json").read_text())
        assert res["n"] == 3 and res["kappa"] == 1.0
        w = res["eigenvalues"]
        assert len(w) == 3 and w == sorted(w, reverse=True)
        assert len(res["profiles"]) == 2
        for prof in res["profiles"]:
            assert prof["scale"] == 3.0
            assert len(prof["shrinkage"]) == 3 and len(prof["filter_gains"]) == 3
            assert all(0.0 < fac <= 1.0 for _, fac in prof["shrinkage"])
            assert all(g <= prof["filter_gain_bound"] + 1e-12 for g in prof["filter_gains"])
        first = (tmp_path / "out.spectrum.json").read_bytes()
        assert main(["spectrum", "--config", path]) == 0
        assert (tmp_path / "out.spectrum.json").read_bytes() == first

    def test_kappa_matches_bounds(self, tmp_path):
        # kappa is sup sqrt(K(x, x)) in both outputs, not the largest K(x, x).
        points = [[1.0, 2.0], [3.0, 0.5], [0.0, 1.0]]
        common = {"kernel": {"kind": "linear"}, "points": points}
        spectrum = {**common, "lambdas": [0.1], "output": str(tmp_path / "s")}
        bounds = {**common, "lambda": 0.1, "eps": 0.5, "c": 1.0, "m": 1.0}
        bounds["output"] = str(tmp_path / "b")
        assert main(["spectrum", "--config", write_config(tmp_path, spectrum, "s.json")]) == 0
        assert main(["bounds", "--config", write_config(tmp_path, bounds, "b.json")]) == 0
        got = json.loads((tmp_path / "s.spectrum.json").read_text())["kappa"]
        assert got == json.loads((tmp_path / "b.bounds.json").read_text())["kappa"]
        assert got == math.sqrt(9.25)


class TestTopLevel:
    def test_missing_config_file_is_io_error(self, tmp_path, capsys):
        assert main(["fit", "--config", str(tmp_path / "nope.json")]) == 2
        assert "io error" in capsys.readouterr().err

    # The decoder gives up on deep nesting with a RecursionError.
    @pytest.mark.parametrize(
        "text", ["{not json", "[" * 100000 + "]" * 100000], ids=["malformed", "nested"]
    )
    def test_invalid_json_is_config_error(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["fit", "--config", str(path)]) == 1
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--seed", "3"], ["--out", "elsewhere"]])
    def test_non_object_root_is_config_error(self, tmp_path, capsys, flags):
        path = write_config(tmp_path, [1])
        assert main(["thm2", "--config", path, *flags]) == 1
        assert "config key <root>: expected a JSON object" in capsys.readouterr().err

    def test_blocked_output_is_io_error_and_cleans_up(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("")
        cfg = fit_config(tmp_path, output=str(blocker / "out"))
        assert main(["fit", "--config", write_config(tmp_path, cfg)]) == 2
        assert "io error" in capsys.readouterr().err
        assert list(tmp_path.glob("out*")) == []

    def test_failed_write_removes_every_output(self, tmp_path, capsys, monkeypatch):
        # The second of thm2's three outputs fails mid-write: the first file
        # and the partly written second are both removed.
        real_open = open
        opened = []

        class FailingWrite:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[:5])
                raise OSError("no space left on device")

        def fake_open(path, mode="r", *args, **kwargs):
            fh = real_open(path, mode, *args, **kwargs)
            if "w" not in mode:
                return fh
            opened.append(path)
            return FailingWrite(fh) if len(opened) == 2 else fh

        monkeypatch.setattr(cli_module, "open", fake_open, raising=False)
        path = write_config(tmp_path, thm2_config(tmp_path))
        assert main(["thm2", "--config", path]) == 2
        assert "io error" in capsys.readouterr().err
        assert len(opened) == 2
        assert list(tmp_path.glob("exp*")) == []

    def test_help_documents_config_keys(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["thm2", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "config keys:" in text
        assert "t_grid" in text and "f_tilde" in text
        assert "--seed" in text

    @pytest.mark.parametrize("command", ["fit", "interpolate", "bounds", "spectrum", "thm1", "thm2"])
    def test_help_lists_seed_only_where_the_config_has_a_seed(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert ("--seed" in text) == (command in ("thm1", "thm2"))
        assert "--out" in text

    def test_module_entry_point(self, tmp_path):
        cfg = fit_config(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "krstab.cli", "fit", "--config", write_config(tmp_path, cfg)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "wrote" in proc.stdout
        assert (tmp_path / "out.fit.json").exists()

    def test_main_entry_freezes_the_start_up_heap_before_main(self, monkeypatch):
        # gc.freeze is replaced, so the test process's own heap stays unfrozen.
        events = []
        monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))

        def fake_main(argv=None):
            events.append("main")
            return cli_module.EXIT_DIAGNOSTICS

        monkeypatch.setattr(cli_module, "main", fake_main)
        with pytest.raises(SystemExit) as exit_info:
            cli_module.main_entry()
        assert events == ["freeze", "main"]
        assert exit_info.value.code == cli_module.EXIT_DIAGNOSTICS

    def test_start_up_skips_statistics_csv_numpy_ma_and_hashlib(self):
        # A thm command pays for every module that importing the CLI loads;
        # csv is imported by the CSV reader, and statistics (which loads
        # fractions and decimal) not at all.  Nor does a run's median load
        # numpy.ma, as np.median would, nor config_sha1 load hashlib, which
        # maps OpenSSL's libcrypto.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        probe = "\n".join(
            [
                "import sys, krstab.cli",
                "from krstab.experiments import ExperimentReport, ReportRow",
                "rows = [ReportRow(1, 1.0, t, 0, 1.0, 1.0, 0.5) for t in range(2)]",
                "ExperimentReport(rows, {}).medians()",
                "krstab.cli._config_hash({'seed': 1, 'output': 'out'})",
                "names = ('statistics', 'fractions', 'decimal', 'csv', 'numpy.ma',",
                "         'hashlib', '_hashlib', '_blake2')",
                "print([m for m in names if m in sys.modules])",
            ]
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_import_generates_no_dataclass_code(self):
        # A dataclass compiles its generated methods on every import; the
        # CLI's classes are plain, so importing it leaves dataclasses (and
        # its exec of generated source) out of the process.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        probe = "import sys, krstab.cli; print('dataclasses' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


def _line_points(n):
    return [[4.0 * i / n] for i in range(n)]


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def _run_capped(args):
    """``python -m krstab.cli ARGS`` in a child whose address space is capped
    at 2 GiB, so that a command which does allocate an oversized matrix
    fails at once instead of taking the host's memory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = "1"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "krstab.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=_cap_address_space,
    )
    return proc, time.perf_counter() - start


# The smallest n whose n x n Gram matrix is above kernels.MAX_ENTRIES = 2^27.
OVERSIZED_N = 11586


class TestMemoryGuard:
    """An oversized dense matrix is refused before it is allocated: a thm1
    row is flagged and the run goes on, any other command exits 3 and
    writes nothing.  Each command, start-up included, ends within a
    second."""

    def test_oversized_thm1_row_is_flagged(self, tmp_path):
        cfg = json.loads((ROOT / "docs" / "configs" / "thm1.json").read_text(encoding="utf-8"))
        cfg["schedule"]["exponent"] = 0.8
        cfg.update(n_grid=[65536], trials=1, output=str(tmp_path / "exp"))
        proc, seconds = _run_capped(["thm1", "--config", write_config(tmp_path, cfg)])
        assert proc.returncode == 0, proc.stderr
        assert seconds < 1.0
        summary = json.loads((tmp_path / "exp.summary.json").read_text(encoding="utf-8"))
        [row] = summary["flagged_rows"]
        assert row["index_var"] == 65536 and row["trial"] == 0
        assert "65536 x 65536 kernel matrix needs 34359738368 bytes" in row["flag"]
        assert summary["medians"] == [] and summary["rate"] is None
        [line] = (tmp_path / "exp.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert line.split(",")[4] == "nan"

    @pytest.mark.parametrize(
        "command, n",
        [
            ("spectrum", 20000),
            ("thm2", OVERSIZED_N),
            ("fit", OVERSIZED_N),
            ("interpolate", OVERSIZED_N),
            ("bounds", OVERSIZED_N),
        ],
    )
    def test_oversized_matrix_exits_diagnostics(self, tmp_path, command, n):
        points = _line_points(n)
        values = [0.0] * n
        if command == "fit":
            cfg = fit_config(tmp_path, dataset={"points": points, "labels": values})
        elif command == "interpolate":
            cfg = {
                "kernel": GAUSS,
                "dataset": {"points": points, "values": values},
                "output": str(tmp_path / "out"),
            }
        else:
            cfg = CONFIGS[command](tmp_path)
            cfg["points"] = points
        proc, seconds = _run_capped([command, "--config", write_config(tmp_path, cfg)])
        assert proc.returncode == 3, proc.stderr
        assert seconds < 1.0
        assert f"a {n} x {n} kernel matrix needs {8 * n * n} bytes" in proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("command, trials", [("thm1", 1e30), ("thm2", 10**7)])
    def test_huge_trials_exits_diagnostics(self, tmp_path, command, trials):
        # The sweep refuses the rows before it builds any.
        cfg = json.loads((ROOT / "docs" / "configs" / f"{command}.json").read_text("utf-8"))
        cfg.update(trials=trials, output=str(tmp_path / "exp"))
        proc, seconds = _run_capped([command, "--config", write_config(tmp_path, cfg)])
        assert proc.returncode == 3, proc.stderr
        assert seconds < 1.0
        assert f"trials {int(trials)} over a grid of 5 entries" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @staticmethod
    def _docs_run_exit(tmp_path, command):
        cfg = json.loads((ROOT / "docs" / "configs" / f"{command}.json").read_text("utf-8"))
        cfg["output"] = str(tmp_path / "exp")
        return main([command, "--config", write_config(tmp_path, cfg)])

    def test_thm1_rows_above_the_byte_limit_exit_3(self, tmp_path, monkeypatch, capsys):
        # The docs run's 25 rows of about 700 B are above 8 * 2048 B.  Every
        # kernel matrix it builds has at most 2048 entries (the target's
        # values at 512 points) or is flagged, so without the guard it exits 0.
        monkeypatch.setattr(krstab.kernels, "MAX_ENTRIES", 2048)
        assert self._docs_run_exit(tmp_path, "thm1") == 3
        err = capsys.readouterr().err
        assert "trials 5 over a grid of 5 entries make 25 rows of about" in err
        assert "above the limit of 16384 bytes" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_thm2_label_blocks_above_the_entry_limit_exit_3(self, tmp_path, monkeypatch, capsys):
        # The docs run's noise and label blocks are 100 rows x 25 points, one
        # entry above the limit; its Gram matrix has 625 entries, so without
        # the guard it exits 0.
        monkeypatch.setattr(krstab.kernels, "MAX_ENTRIES", 2499)
        assert self._docs_run_exit(tmp_path, "thm2") == 3
        err = capsys.readouterr().err
        assert "trials 20 over a grid of 5 entries make 100 rows of 25 labels" in err
        assert "2500 entries, above the limit of 2499 entries" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def bounds_config(tmp_path):
    return {
        "lambda": 0.5,
        "eps": 0.5,
        "c": 1.0,
        "m": 1.0,
        "kernel": GAUSS,
        "points": [[0.0], [1.0]],
        "output": str(tmp_path / "out"),
    }


def spectrum_config(tmp_path):
    return {
        "kernel": {"kind": "polynomial", "degree": 2, "offset": 1.0},
        "points": [[0.0], [0.8], [1.6]],
        "lambdas": [0.1, 1.0],
        "output": str(tmp_path / "out"),
    }


CONFIGS = {
    "fit": fit_config,
    "thm1": thm1_config,
    "thm2": thm2_config,
    "bounds": bounds_config,
    "spectrum": spectrum_config,
}
DELETE = object()


def edited_config(tmp_path, command, path, value):
    """The command's base config with the key at ``path`` ("a/b/0") set to
    ``value``, or removed when ``value`` is DELETE."""
    cfg = json.loads(json.dumps(CONFIGS[command](tmp_path)))
    *parents, last = [int(k) if k.isdigit() else k for k in path.split("/")]
    node = cfg
    for key in parents:
        node = node[key]
    if value is DELETE:
        del node[last]
    else:
        node[last] = value
    return cfg


class TestConfigParsing:
    @pytest.mark.parametrize(
        "command,path,integral",
        [
            ("thm2", "seed", 5.0),
            ("thm2", "trials", 2.0),
            ("thm1", "n_grid/0", 8.0),
            ("bounds", "n", 2.0),
            ("spectrum", "kernel/degree", 2.0),
        ],
    )
    @pytest.mark.parametrize("kind", ["integral", "fractional", "bool"])
    def test_integer_keys(self, tmp_path, capsys, command, path, integral, kind):
        value = {"integral": integral, "fractional": integral + 0.5, "bool": True}[kind]
        cfg = edited_config(tmp_path, command, path, value)
        code = main([command, "--config", write_config(tmp_path, cfg)])
        if kind == "integral":
            assert code == 0
        else:
            assert code == 1
            assert f"config error: config key {path}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,path,value",
        [
            ("fit", "lambda", math.inf),
            ("fit", "dataset/labels/0", math.nan),
            ("bounds", "eps", math.inf),
            ("thm1", "distribution/noise/b_max", math.nan),
            ("thm2", "schedule/exponent", math.nan),
            ("spectrum", "points/0/0", -math.inf),
        ],
    )
    def test_non_finite_numbers_rejected(self, tmp_path, capsys, command, path, value):
        cfg = edited_config(tmp_path, command, path, value)
        out = str(tmp_path / "written")
        assert main([command, "--config", write_config(tmp_path, cfg), "--out", out]) == 1
        assert f"config key {path}: expected a finite number" in capsys.readouterr().err
        assert list(tmp_path.glob("written*")) == []

    @pytest.mark.parametrize(
        "command,path,value,named",
        [
            # an unknown key at every nesting level
            ("fit", "bogus", 1, "bogus"),
            ("fit", "kernel/bogus", 1, "bogus"),
            ("fit", "dataset/bogus", 1, "bogus"),
            ("thm2", "f_tilde/bogus", 1, "bogus"),
            ("thm1", "distribution/target/bogus", 1, "bogus"),
            ("thm2", "noise/bogus", 1, "bogus"),
            ("thm2", "schedule/bogus", 1, "bogus"),
            ("thm1", "distribution/bogus", 1, "bogus"),
            ("thm1", "distribution/box/bogus", 1, "bogus"),
            # a string or a bool where a number is expected
            ("thm2", "noise/b_max", "0.5", "noise/b_max"),
            ("fit", "lambda", "1", "lambda"),
            ("thm2", "t_grid/0", "1", "t_grid/0"),
            ("fit", "kernel/width", True, "kernel/width"),
            ("bounds", "eps", True, "eps"),
            ("thm1", "distribution/box/lo/0", False, "distribution/box/lo/0"),
            # empty arrays
            ("thm2", "points", [], "points"),
            ("thm2", "f_tilde/coeffs", [], "f_tilde/coeffs"),
            ("thm2", "t_grid", [], "t_grid"),
            ("spectrum", "lambdas", [], "lambdas"),
            # out-of-range values and wrong shapes
            ("thm2", "seed", -1, "seed"),
            ("thm2", "trials", 0, "trials"),
            ("thm1", "n_grid/0", 0, "n_grid/0"),
            ("spectrum", "lambdas/1", 0.0, "lambdas/1"),
            ("bounds", "b_max", -0.5, "b_max"),
            ("spectrum", "points/0", 0.0, "points/0"),
            ("fit", "output", 3, "output"),
            ("thm1", "trials", DELETE, "trials"),
            # bounds needs points with its kernel
            ("bounds", "points", DELETE, "points"),
            # thm2 points must share the f_tilde anchors' dimension
            (
                "thm2",
                "points",
                [[0.0, 1.0]],
                "points: dimension 2 does not match the f_tilde anchors' dimension 1",
            ),
            # integers beyond the float range are not finite numbers
            pytest.param("fit", "lambda", 10**400, "lambda", id="fit-lambda-1e400-lambda"),
            pytest.param("thm2", "t_grid/2", 10**400, "t_grid/2", id="thm2-t_grid/2-1e400-t_grid/2"),
            # a grid that does not increase is named like every other key
            ("thm2", "t_grid", [10, 1], "config key t_grid: must be strictly increasing"),
            ("thm1", "n_grid", [16, 8], "config key n_grid: must be strictly increasing"),
            # a missing key inside a nested object
            ("fit", "kernel/kind", DELETE, "kernel/kind: required key is missing"),
            ("thm2", "noise/b_max", DELETE, "noise/b_max: required key is missing"),
            ("thm2", "schedule/lambda0", DELETE, "schedule/lambda0: required key is missing"),
            ("thm2", "f_tilde/coeffs", DELETE, "f_tilde/coeffs: required key is missing"),
            # power is the one schedule family
            (
                "thm2",
                "schedule/family",
                "geometric",
                "config key schedule/family: unknown schedule family 'geometric'",
            ),
        ],
    )
    def test_rejections_name_the_key(self, tmp_path, capsys, command, path, value, named):
        cfg = edited_config(tmp_path, command, path, value)
        with pytest.raises(ValueError, match=re.escape(named)):
            _validate_config(command, cfg)
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 1
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "parse,obj,spec",
        [
            (cli_module._kernel, KernelSpec.gaussian(0.7), None),
            (cli_module._kernel, KernelSpec.linear(), None),
            (cli_module._kernel, KernelSpec.polynomial(3, 0.5), None),
            # No output writes a noise spec, so its JSON is given here.
            (cli_module._noise, NoiseProcess("uniform", 0.5), {"kind": "uniform", "b_max": 0.5}),
            (
                cli_module._noise,
                NoiseProcess("rademacher", 0.25),
                {"kind": "rademacher", "b_max": 0.25},
            ),
            (
                cli_module._noise,
                NoiseProcess("truncated_gaussian", 1.0, 0.8),
                {"kind": "truncated_gaussian", "b_max": 1.0, "sd": 0.8},
            ),
            (cli_module._schedule, Schedule(0.25, 1.5), None),
        ],
        ids=["gaussian", "linear", "polynomial", "uniform", "rademacher", "truncated", "schedule"],
    )
    def test_parsers_invert_to_json_dict(self, parse, obj, spec):
        assert parse(obj.to_json_dict() if spec is None else spec, "x") == obj

    def test_expansion_parser_inverts_to_json_dict(self):
        f = RepresenterFunction(
            KernelSpec.polynomial(2, 1.0), PointSet([[0.5, 1.0], [1.5, -2.0]]), [0.3, -0.7]
        )
        back = cli_module._function(f.to_json_dict(), "f_tilde")
        assert back.kernel == f.kernel
        np.testing.assert_array_equal(back.anchors.points, f.anchors.points)
        np.testing.assert_array_equal(back.coeffs, f.coeffs)

    def test_parsers_convert_numbers(self):
        # floats for b_max, lambda0 and exponent; an integral degree becomes
        # an int; width, offset and sd pass through as given; a schedule
        # given without a family writes family power.
        noise = cli_module._noise({"kind": "truncated_gaussian", "b_max": 1, "sd": 2}, "noise")
        assert type(noise.b_max) is float and type(noise.sd) is int
        sched = cli_module._schedule({"lambda0": 1, "exponent": 0}, "schedule")
        assert type(sched.lambda0) is float and type(sched.exponent) is float
        assert sched == Schedule(1.0, 0.0)
        assert sched.to_json_dict()["family"] == "power"
        poly = cli_module._kernel({"kind": "polynomial", "degree": 2.0, "offset": 1}, "kernel")
        assert type(poly.degree) is int and type(poly.offset) is int
        assert type(cli_module._kernel({"kind": "gaussian", "width": 2}, "kernel").width) is int


DOCS_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "docs" / "configs").glob("*.json"))
OUTPUT_SUFFIXES = {
    "bounds": [".bounds.json"],
    "fit": [".fit.json", ".residuals.csv"],
    "interpolate": [".interpolant.json", ".residuals.csv"],
    "spectrum": [".spectrum.json"],
    "thm1": [".csv", ".summary.json", ".plot.dat"],
    "thm2": [".csv", ".summary.json", ".plot.dat"],
}


def test_every_command_has_a_sample_config():
    assert sorted(p.stem for p in DOCS_CONFIGS) == sorted(OUTPUT_SUFFIXES)


@pytest.mark.parametrize("config", DOCS_CONFIGS, ids=lambda p: p.stem)
def test_sample_config_runs(tmp_path, config):
    out = tmp_path / "sample"
    assert main([config.stem, "--config", str(config), "--out", str(out)]) == 0
    for suffix in OUTPUT_SUFFIXES[config.stem]:
        assert Path(str(out) + suffix).is_file()


@pytest.mark.parametrize("command", ["fit", "interpolate"])
def test_fit_and_interpolate_build_one_kernel_matrix(tmp_path, kernel_matrix_calls, command):
    # The fitted values, the residuals and the objective come from the Gram
    # matrix that the solve factors.
    config = ROOT / "docs" / "configs" / f"{command}.json"
    assert main([command, "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    n = len(json.loads(config.read_text(encoding="utf-8"))["dataset"]["points"])
    assert kernel_matrix_calls == [(n, n)]


def _edited_docs_config(command: str, edits: dict) -> dict:
    """docs/configs/<command>.json with each "a/b" key path set to its value,
    or deleted where the value is None."""
    cfg = json.loads((ROOT / "docs" / "configs" / f"{command}.json").read_text(encoding="utf-8"))
    for key, value in edits.items():
        *parents, last = key.split("/")
        node = cfg
        for part in parents:
            node = node[part]
        if value is None:
            del node[last]
        else:
            node[last] = value
    return cfg


# One number of a docs/configs file set to an extreme but finite value whose
# result leaves the float range (Python's float ** and / raise where numpy
# gives inf), and the quantity the error names.
FLOAT_RANGE_CASES = [
    ("thm1", "schedule/exponent", -400, "the schedule's lambda"),
    ("thm1", "schedule/lambda0", 1e-320, "beta"),
    ("thm1", "eta", 1e200, "eps_for_target"),
    ("thm1", "m_bound", 1e300, "beta"),
    ("thm1", "c_bound", 1e300, "beta"),
    ("thm2", "t_grid", [1, 1e300], "p_n"),
    ("thm2", "t_grid", [1e-300, 1], "p_n"),
    ("bounds", "eps", 1e-200, "p_n"),
    ("bounds", "eps", 1e200, "p_n"),
    ("bounds", "m", 1e300, "p_n"),
    ("bounds", "c", 1e300, "beta"),
    ("bounds", "lambda", 1e-320, "beta"),
    ("spectrum", "lambdas", [1e-320], "output key profiles/0/filter_max_value"),
]


@pytest.mark.parametrize("command,key,value,quantity", FLOAT_RANGE_CASES)
def test_results_beyond_the_float_range_are_config_errors(
    tmp_path, capsys, command, key, value, quantity
):
    cfg = _edited_docs_config(command, {key: value})
    out = tmp_path / "written"
    assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {quantity}") and "leaves the float range" in err
    assert "Traceback" not in err
    assert list(tmp_path.glob("written*")) == []


def _gaussian_width_cases(width):
    kernel = {"kind": "gaussian", "width": width}
    return [
        ("fit", {"kernel/width": width}, "kernel"),
        ("interpolate", {"kernel/width": width}, "kernel"),
        ("spectrum", {"kernel/width": width}, "kernel"),
        ("bounds", {"kappa": None, "n": None, "kernel": kernel, "points": [[0.0], [1.0]]}, "kernel"),
        ("thm1", {"distribution/target/kernel/width": width}, "distribution/target/kernel"),
        ("thm2", {"f_tilde/kernel/width": width}, "f_tilde/kernel"),
    ]


# (command, edits to its docs config, exit code, start of stderr)
KEYED_FAILURES = [
    *(
        (command, edits, 1, f"config error: config key {path}: gaussian kernel requires "
         f"2 * width^2 to be a positive finite float, got width {width!r}")
        for width in (1e300, 1e-300)
        for command, edits, path in _gaussian_width_cases(width)
    ),
    (
        "thm2",
        {"schedule/exponent": 0, "noise/b_max": 0, "t_grid": [1e-310, 1]},
        1,
        "config error: noise_bound = (1/(n t)) * (sqrt(n) / (2 sqrt(lam))) * ||b||_2 "
        "leaves the float range",
    ),
    (
        "thm2",
        {"schedule/exponent": 0, "noise/b_max": 1, "t_grid": [1e-310, 1]},
        1,
        "config error: labels f_tilde(x) + b / t leave the float range at t_grid entry 1e-310",
    ),
    ("bounds", {"b_max": None}, 1, "config error: config key b_max: required with t"),
    ("bounds", {"t": None}, 1, "config error: config key t: required with b_max"),
    (
        "fit",
        {"dataset/points": [[0.0], [0.0], [1.0]], "dataset/labels": [1.0, 1.0, 0.0],
         "lambda": 1e-30},
        3,
        "numerical diagnostics failure: shifted Gram matrix may be indefinite",
    ),
    (
        "thm2",
        {"points": [[0.0], [0.0], [1.0], [2.0]], "schedule/lambda0": 1e-30},
        3,
        "numerical diagnostics failure: shifted Gram matrix may be indefinite",
    ),
]


@pytest.mark.parametrize("command,edits,code,message", KEYED_FAILURES)
def test_extreme_inputs_fail_with_a_keyed_message(tmp_path, capsys, command, edits, code, message):
    # A gaussian width whose divisor 2 * width^2 leaves the float range, a
    # thm2 t so small that the noise bound or the labels b / t overflow,
    # bounds' t without b_max or b_max without t, and a ridge shift within
    # the PSD tolerance of a singular Gram matrix.  No warning is printed
    # (tier-1 turns one into an error), no traceback, and nothing is written.
    out = tmp_path / "written"
    cfg = _edited_docs_config(command, edits)
    assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert "Traceback" not in err
    assert list(tmp_path.glob("written*")) == []


def test_thm1_shift_within_the_psd_tolerance_flags_every_row(tmp_path):
    # lambda0 = 1e-30: every row's N lam is far below tau = 1e-10 * N, so
    # the dense rows are flagged by the solve's shift rule and the N >= 128
    # rows go dense by the condition limit and are flagged there too.
    cfg = _edited_docs_config("thm1", {"schedule/lambda0": 1e-30, "trials": 2})
    out = tmp_path / "o"
    assert main(["thm1", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    summary = json.loads(Path(str(out) + ".summary.json").read_text(encoding="utf-8"))
    assert summary["row_count"] == 10 and len(summary["flagged_rows"]) == 10
    assert all("does not exceed the PSD tolerance" in r["flag"] for r in summary["flagged_rows"])
    assert summary["medians"] == [] and summary["rate"] is None
    rows = Path(str(out) + ".csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split(",")[4] for row in rows] == ["nan"] * 10


def _hashlib_sha1(cfg: dict) -> str:
    trimmed = {k: v for k, v in cfg.items() if k != "output"}
    blob = json.dumps(trimmed, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha1(blob).hexdigest()


DIGEST_CONFIGS = {
    **{p.stem: json.loads(p.read_text(encoding="utf-8")) for p in DOCS_CONFIGS},
    "non_ascii": {"label": "Grüße λ→∞ ✓", "output": "out"},
    "twenty_digit_int": {"seed": 12345678901234567890, "output": "out"},
}


@pytest.mark.parametrize("name", DIGEST_CONFIGS)
def test_config_hash_matches_hashlib_sha1(name):
    cfg = DIGEST_CONFIGS[name]
    assert cli_module._config_hash(cfg) == _hashlib_sha1(cfg)




def test_config_hash_falls_back_to_hashlib_without_builtin_sha1():
    # An interpreter built without the _sha1 module takes hashlib's sha1.
    cfg = DIGEST_CONFIGS["thm2"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = "\n".join(
        [
            "import json, sys",
            "sys.modules['_sha1'] = None",
            "import krstab.cli",
            "cfg = json.loads(sys.stdin.read())",
            "print('hashlib' in sys.modules, krstab.cli._config_hash(cfg))",
        ]
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        input=json.dumps(cfg),
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", _hashlib_sha1(cfg)]


def _expected_spans() -> dict:
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.EXPECTED_SPANS


@pytest.mark.parametrize(
    "command,workload,overrides",
    [("thm1", "thm1_growing", {}), ("thm2", "thm2_design", {"t_grid": [1, 10]})],
    ids=["thm1", "thm2"],
)
def test_traced_run_records_every_expected_span(tmp_path, command, workload, overrides):
    # The benchmark traces each workload from outside and fails a run in which
    # an expected span records no call, so a renamed or bypassed function
    # fails here first.
    cfg = CONFIGS[command](tmp_path, **overrides)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "trace_child.py"),
            str(tmp_path / "spans.jsonl"),
            command,
            "--config",
            write_config(tmp_path, cfg),
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(proc.stdout.splitlines()[-1])["spans"]
    missing = [s for s in _expected_spans()[workload] if spans.get(s, {}).get("calls", 0) == 0]
    assert missing == []


def _run_edited(tmp_path, capsys, command, edits):
    """(exit code, stderr, written files) of main on an edited docs config."""
    cfg = _edited_docs_config(command, edits)
    out = tmp_path / "written"
    code = main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)])
    return code, capsys.readouterr().err, sorted(p.name for p in tmp_path.glob("written*"))


# A kernel value whose squared distance or quotient overflows is its exact
# limit exp(-inf) = 0, so these runs exit 0 and print nothing on stderr
# (tier-1 turns the RuntimeWarning they printed before into an error).


def test_fit_point_at_1e300_runs_silently(tmp_path, capsys):
    points = [[0.25 * i] for i in range(8)] + [[1e300]]
    code, err, written = _run_edited(tmp_path, capsys, "fit", {"dataset/points": points})
    assert (code, err) == (0, "")
    assert written == ["written.fit.json", "written.residuals.csv"]


def test_spectrum_point_at_1e300_is_an_isolated_eigenvalue(tmp_path, capsys):
    points = [[0.5 * i] for i in range(7)] + [[1e300]]
    code, err, _ = _run_edited(tmp_path, capsys, "spectrum", {"points": points})
    assert (code, err) == (0, "")
    result = json.loads((tmp_path / "written.spectrum.json").read_text(encoding="utf-8"))
    assert min(abs(w - 1.0) for w in result["eigenvalues"]) < 1e-12


def test_thm1_box_to_1e300_runs_silently(tmp_path, capsys):
    code, err, _ = _run_edited(tmp_path, capsys, "thm1", {"distribution/box/hi": [1e300]})
    assert (code, err) == (0, "")


def test_gaussian_width_with_a_subnormal_divisor_is_the_identity(tmp_path, capsys):
    # 2 * 1e-160^2 is subnormal: every distinct pair's quotient overflows.
    code, err, _ = _run_edited(tmp_path, capsys, "fit", {"kernel/width": 1e-160})
    assert (code, err) == (0, "")
    pts = [[0.0], [0.25], [1.0]]
    assert np.array_equal(kernel_matrix(KernelSpec.gaussian(1e-160), pts, pts), np.eye(3))


# An intermediate value that leaves the float range, beyond the quantities
# named by their own checks, is a config error, not a RuntimeWarning followed
# by a result or by another error.
@pytest.mark.parametrize(
    "command,edits",
    [
        ("fit", {"dataset/labels": [1e300] + [0.0] * 8}),
        ("fit", {"dataset/labels": [1.7e308] + [0.0] * 8}),
        ("fit", {"lambda": 1.7e308}),
        ("interpolate", {"dataset/values": [1.7e308, 0.0, 0.0, 0.0, 0.0]}),
        ("thm1", {"distribution/target/coeffs": [1e300, 1.0, 1.0, 0.7], "trials": 2}),
        ("thm2", {"f_tilde/coeffs": [1e300, -0.8, 0.6, -1.2, 0.9], "trials": 2}),
    ],
    ids=[
        "fit-label-1e300",
        "fit-label-max",
        "fit-lambda-max",
        "interpolate-value-max",
        "thm1-target-coeff",
        "thm2-f-tilde-coeff",
    ],
)
def test_intermediate_overflow_is_a_config_error(tmp_path, capsys, command, edits):
    code, err, written = _run_edited(tmp_path, capsys, command, edits)
    assert code == 1 and written == []
    assert err.startswith("config error: these inputs leave the float range: overflow"), err


def test_thm1_sample_beyond_the_entry_limit_exits_3(tmp_path, capsys):
    # 10^12 points were a MemoryError traceback; 10^30 a numpy ValueError.
    for n in (10**12, 1e30):
        code, err, written = _run_edited(tmp_path, capsys, "thm1", {"n_grid": [32, n]})
        assert code == 3 and written == []
        assert err.startswith(f"numerical diagnostics failure: a sample of {int(n)} points")


def _configs_setting_every_key(tmp_path) -> dict:
    """Per command, configs that parse and together set every key of its
    table: one per alternative where keys exclude each other (a dataset
    source; bounds' kappa + n or kernel + points)."""
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("x1,y\n0.0,1.0\n0.5,0.4\n1.0,-0.1\n", encoding="utf-8")
    from_csv = {"dataset": None, "dataset_csv": str(csv_path)}
    harness = {"eta": 0.2, "m_bound": 5.0, "c_bound": 20.0}
    gram_route = {"kappa": None, "kernel": {"kind": "linear"}, "points": [[0.0], [1.0]]}
    return {
        "fit": [_edited_docs_config("fit", {}), _edited_docs_config("fit", from_csv)],
        "interpolate": [
            _edited_docs_config("interpolate", {}),
            _edited_docs_config("interpolate", from_csv),
        ],
        "thm1": [_edited_docs_config("thm1", {"trials": 2, **harness})],
        "thm2": [_edited_docs_config("thm2", {"trials": 2, **harness})],
        "bounds": [_edited_docs_config("bounds", {}), _edited_docs_config("bounds", gram_route)],
        "spectrum": [_edited_docs_config("spectrum", {"scale": 4.0})],
    }


@pytest.mark.parametrize("command", list(cli_module._CONFIG_KEYS))
def test_every_table_key_is_parsed_and_used(tmp_path, command):
    # Each key of _CONFIG_KEYS has its parser in its row, and each parsed
    # key reaches the runner's arguments or a cross-key check: a row whose
    # parser ignored its value, or a value that nothing read, fails here.
    configs = _configs_setting_every_key(tmp_path)[command]
    table = cli_module._CONFIG_KEYS[command]
    assert set().union(*configs) == {*table, "output"}
    for cfg in configs:
        args = _validate_config(command, cfg)
        for key in set(cfg) - {"output"}:
            with pytest.raises(ValueError, match=f"^config key {key}: expected"):
                _validate_config(command, {**cfg, key: None})
            without = {k: v for k, v in cfg.items() if k != key}
            try:
                assert set(_validate_config(command, without)) < set(args), key
            except ValueError:  # a missing required key or a cross-key rule
                pass
        if command in ("thm1", "thm2"):
            # the runner takes exactly the parsed arguments, each by its name
            run = cli_module.run_thm1 if command == "thm1" else cli_module.run_thm2
            assert set(args) == set(inspect.signature(run).parameters)
