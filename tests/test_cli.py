"""End-to-end command line tests: config validation and exit codes, output
file contracts, byte-for-byte rerun determinism, the override flags, and the
spans the benchmark's tracer expects from each experiment command."""

import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import krstab.cli as cli_module
from krstab.cli import _validate_config, main

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

    def test_invalid_json_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
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
        ],
    )
    def test_rejections_name_the_key(self, tmp_path, capsys, command, path, value, named):
        cfg = edited_config(tmp_path, command, path, value)
        with pytest.raises(ValueError, match=re.escape(named)):
            _validate_config(command, cfg)
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 1
        assert named in capsys.readouterr().err


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


ROOT = Path(__file__).resolve().parents[1]


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
