"""Command line front end.

Each subcommand reads a JSON config file, parses it once into the library
objects its runner needs (unknown keys are rejected, numbers must be finite),
runs the requested computation, and writes its output files deterministically:
rerunning with the same config reproduces every output byte for byte.  Nothing
is written unless the whole command succeeds; on failure any partially written
files are removed.

Exit codes: 0 success (all outputs written), 1 config error, 2 IO error,
3 numerical diagnostics failure.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import math
import os
import sys

import numpy as np

from .experiments import (
    DataDistribution,
    ExperimentReport,
    NoiseProcess,
    estimate_rate,
    run_thm1,
    run_thm2,
)
from .kernels import KernelSpec, PointSet, sample_kappa
from .linalg import DiagnosticsError
from .operators import (
    EvaluationOperator,
    filter_gain_bound,
    filter_gains,
    filter_max,
    noise_operator_bound,
    operator_norm_bound_p,
    shrinkage_profile,
)
from .rkhs import RepresenterFunction, evaluate
from .solver import DataSet, krr_fit, min_norm_interpolant
from .stability import (
    Schedule,
    StabilityParams,
    beta_stability,
    eps_for_target,
    sigma_admissible_ls,
    stability_probability,
    stability_probability_combined,
    variance_radius,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_DIAGNOSTICS = 3

_KERNEL_HELP = (
    "kernel spec: {kind:'gaussian', width>0} or {kind:'linear'} or "
    "{kind:'polynomial', degree: integer>=1, offset>=0}"
)
_DATASET_HELP = "inline data {points: [[...],...], %s: [...]}; exactly one of dataset / dataset_csv"
_DATASET_CSV_HELP = "CSV file path, header x1,...,xd,y; exactly one of dataset / dataset_csv"
_SCHEDULE_HELP = (
    "regularization schedule {{family:'power', lambda0>0, exponent}}; "
    "lambda({i}) = lambda0 * {i}^-exponent"
)
_HARNESS_KEYS = {
    "trials": (True, "trials per grid point, integer >= 1"),
    "seed": (True, "master seed, integer >= 0"),
    "eta": (False, "target H-distance for the certified-closeness columns (default 0.1)"),
    "c_bound": (False, "loss admissibility constant C; default 4 * M"),
}

# Per command: config key -> (required, help line), besides the required
# output key that every command takes.  The table drives the unknown/missing-key
# checks, the --help epilog and which commands take --seed.
_CONFIG_KEYS: dict[str, dict[str, tuple[bool, str]]] = {
    "fit": {
        "kernel": (True, _KERNEL_HELP),
        "dataset": (False, _DATASET_HELP % "labels"),
        "dataset_csv": (False, _DATASET_CSV_HELP),
        "lambda": (True, "regularization parameter, number > 0 (never rescaled by n)"),
    },
    "interpolate": {
        "kernel": (True, _KERNEL_HELP),
        "dataset": (False, _DATASET_HELP % "values"),
        "dataset_csv": (False, _DATASET_CSV_HELP),
    },
    "thm2": {
        "points": (True, "fixed design points, one inner array per point"),
        "f_tilde": (
            True,
            "noiseless target as a kernel expansion {kernel, anchors, coeffs}; "
            "its kernel drives the whole run",
        ),
        "noise": (
            True,
            "noise spec {kind: uniform|rademacher|truncated_gaussian, b_max>=0, "
            "sd>0 for truncated_gaussian only}",
        ),
        "schedule": (True, _SCHEDULE_HELP.format(i="t")),
        "t_grid": (True, "noise-shrink factors, strictly increasing positive numbers"),
        "m_bound": (False, "label-scale bound M; default ||f_tilde||_H * kappa + b_max"),
        **_HARNESS_KEYS,
    },
    "thm1": {
        "distribution": (
            True,
            "sampling distribution {box: {lo, hi}, target: function, noise}; "
            "inputs are uniform on the box, labels are target(x) + noise",
        ),
        "schedule": (True, _SCHEDULE_HELP.format(i="n")),
        "n_grid": (True, "sample sizes, strictly increasing integers >= 1"),
        "m_bound": (False, "label-scale bound M; default ||target||_H * kappa + b_max"),
        **_HARNESS_KEYS,
    },
    "bounds": {
        "lambda": (True, "regularization parameter, number > 0"),
        "eps": (True, "closeness level for the probability and radius formulas, number > 0"),
        "c": (True, "loss admissibility constant C > 0"),
        "m": (True, "loss/label scale bound M > 0"),
        "kappa": (False, "kernel diagonal bound sup sqrt(K(x,x)); give kappa+n or kernel+points"),
        "n": (False, "sample size; required with kappa, defaults to len(points) otherwise"),
        "kernel": (False, _KERNEL_HELP),
        "points": (False, "points whose Gram matrix supplies kappa and the operator bounds"),
        "eta": (False, "optional target H-distance; adds the sufficient closeness level"),
        "t": (False, "optional noise-shrink factor; with b_max adds the noise propagation bound"),
        "b_max": (False, "optional noise amplitude; noise bound uses ||b||_2 <= b_max * sqrt(n)"),
        "x_max": (False, "optional bound on |f(x) - y|; adds squared-loss admissibility constant"),
    },
    "spectrum": {
        "kernel": (True, _KERNEL_HELP),
        "points": (True, "points whose Gram spectrum is reported"),
        "lambdas": (True, "regularization values to profile, each > 0"),
        "scale": (False, "eigenvalue scale in shrinkage lambda/(gamma/scale + lambda); default n"),
    },
}


def _config_help(command: str) -> str:
    lines = ["config keys:"]
    for key, (required, text) in _CONFIG_KEYS[command].items():
        lines.append(f"  {key} [{'required' if required else 'optional'}]: {text}")
    _, suffixes, _, _ = _COMMANDS[command]
    outputs = ", ".join("<prefix>" + suffix for suffix in suffixes)
    lines.append(f"  output [required]: output path prefix; writes {outputs}")
    lines.append("numbers must be finite; integer keys take integral numbers.")
    lines.append("flags --seed / --out override the config's seed / output keys.")
    return "\n".join(lines)


def _object(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ValueError(f"config key {path or '<root>'}: expected a JSON object")
    return obj


def _keys(obj, path: str, required, allowed=None) -> dict:
    """``obj`` as a JSON object with every ``required`` key and no key outside ``allowed``."""
    _object(obj, path)
    prefix = f"{path}/" if path else ""
    for key in obj:
        if key not in (required if allowed is None else allowed):
            raise ValueError(f"config key {prefix}{key}: unknown key")
    for key in required:
        if key not in obj:
            raise ValueError(f"config key {prefix}{key}: required key is missing")
    return obj


def _number(value, path: str, integer: bool = False, bound: str = ""):
    """A finite, non-bool JSON number, returned unchanged, or as an int when
    ``integer`` (it must then be integral).  ``bound`` is "", "> 0" or ">= 0"."""
    try:
        finite = isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if isinstance(value, bool) or not finite:
        raise ValueError(f"config key {path}: expected a finite number, got {json.dumps(value)}")
    if integer:
        if value != int(value):
            raise ValueError(f"config key {path}: expected an integer, got {value!r}")
        value = int(value)
    if (bound == "> 0" and not value > 0) or (bound == ">= 0" and not value >= 0):
        raise ValueError(f"config key {path}: must be {bound}, got {value!r}")
    return value


_positive = functools.partial(_number, bound="> 0")
_integer = functools.partial(_number, integer=True)
_count = functools.partial(_number, integer=True, bound="> 0")


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"config key {path}: expected a string, got {json.dumps(value)}")
    return value


def _array(value, path: str, item=_number) -> list:
    """A nonempty JSON array whose entries pass ``item(entry, entry_path)``."""
    if not isinstance(value, list) or not value:
        raise ValueError(f"config key {path}: expected a nonempty array")
    return [item(v, f"{path}/{i}") for i, v in enumerate(value)]


# an array of points, each a nonempty array of numbers
_rows = functools.partial(_array, item=_array)


def _grid(value, path: str, item) -> list:
    grid = _array(value, path, item)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"config key {path}: must be strictly increasing")
    return grid


def _build(path: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``; a ValueError it raises names the config key."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"config key {path}: {exc}") from None


def _points(value, path: str) -> PointSet:
    return _build(path, PointSet, _rows(value, path))


def _fields(obj, path: str) -> dict:
    """A kernel, noise, schedule or function object, each field checked by its
    name: kind and family pass as given, kernel is such an object, anchors are
    points, coeffs numbers, degree an integer, and any other field a number."""
    _object(obj, path)
    checks = {"kernel": _fields, "anchors": _rows, "coeffs": _array, "degree": _integer}
    return {
        k: v if k in ("kind", "family") else checks.get(k, _number)(v, f"{path}/{k}")
        for k, v in obj.items()
    }


def _spec(from_json_dict, obj, path: str):
    """Build a library object from a kernel, noise, schedule or function object."""
    return _build(path, from_json_dict, _fields(obj, path))


def _read_dataset_csv(path: str) -> tuple[PointSet, np.ndarray]:
    # Imported here: a thm command, which reads no CSV, skips its import.
    import csv

    with open(path, newline="", encoding="utf-8") as fh:
        raw = list(csv.reader(fh))
    if not raw:
        raise ValueError(f"{path}: dataset file is empty")
    header = [h.strip() for h in raw[0]]
    d = len(header) - 1
    if d < 1 or header != [f"x{i + 1}" for i in range(d)] + ["y"]:
        raise ValueError(f"{path} line 1: header must be x1,...,xd,y")
    pts: list[list[float]] = []
    ys: list[float] = []
    for lineno, row in enumerate(raw[1:], start=2):
        if not row:
            continue
        if len(row) != d + 1:
            raise ValueError(f"{path} line {lineno}: expected {d + 1} fields, got {len(row)}")
        try:
            vals = [float(c) for c in row]
        except ValueError as exc:
            raise ValueError(f"{path} line {lineno}: non-numeric field") from exc
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"{path} line {lineno}: non-finite value")
        pts.append(vals[:d])
        ys.append(vals[d])
    if not pts:
        raise ValueError(f"{path}: no data rows")
    return PointSet(np.asarray(pts)), np.asarray(ys)


def _parse_data(cfg: dict, value_key: str) -> dict:
    """Kernel, points and values of the ``fit`` / ``interpolate`` commands."""
    if ("dataset" in cfg) == ("dataset_csv" in cfg):
        raise ValueError("config must contain exactly one of dataset / dataset_csv")
    kernel = _spec(KernelSpec.from_json_dict, cfg["kernel"], "kernel")
    if "dataset_csv" in cfg:
        pts, vals = _read_dataset_csv(_string(cfg["dataset_csv"], "dataset_csv"))
    else:
        ds = _keys(cfg["dataset"], "dataset", ("points", value_key))
        pts = _points(ds["points"], "dataset/points")
        vals = np.asarray(_array(ds[value_key], f"dataset/{value_key}"), dtype=float)
        if vals.shape != (len(pts),):
            raise ValueError(f"dataset has {len(pts)} points but {vals.shape[0]} {value_key}")
    return {"kernel": kernel, "pts": pts, "values": vals}


def _parse_fit(cfg: dict) -> dict:
    return {**_parse_data(cfg, "labels"), "lam": float(_positive(cfg["lambda"], "lambda"))}


def _parse_harness(cfg: dict) -> dict:
    """Keyword arguments shared by ``run_thm1`` and ``run_thm2``."""
    args = {
        "schedule": _spec(Schedule.from_json_dict, cfg["schedule"], "schedule"),
        "trials": _count(cfg["trials"], "trials"),
        "seed": _number(cfg["seed"], "seed", integer=True, bound=">= 0"),
    }
    for key in ("eta", "m_bound", "c_bound"):
        if key in cfg:
            args[key] = _positive(cfg[key], key)
    return args


def _parse_thm2(cfg: dict) -> dict:
    pts = _points(cfg["points"], "points")
    f_tilde = _spec(RepresenterFunction.from_json_dict, cfg["f_tilde"], "f_tilde")
    if pts.dim != f_tilde.anchors.dim:
        raise ValueError(
            f"config key points: dimension {pts.dim} does not match the "
            f"f_tilde anchors' dimension {f_tilde.anchors.dim}"
        )
    return {
        "pts": pts,
        "f_tilde": f_tilde,
        "noise": _spec(NoiseProcess.from_json_dict, cfg["noise"], "noise"),
        "t_grid": _grid(cfg["t_grid"], "t_grid", _positive),
        **_parse_harness(cfg),
    }


def _parse_thm1(cfg: dict) -> dict:
    dist = _keys(cfg["distribution"], "distribution", ("box", "target", "noise"))
    box = _keys(dist["box"], "distribution/box", ("lo", "hi"))
    lo, hi = (_array(box[key], f"distribution/box/{key}") for key in ("lo", "hi"))
    target = _spec(RepresenterFunction.from_json_dict, dist["target"], "distribution/target")
    noise = _spec(NoiseProcess.from_json_dict, dist["noise"], "distribution/noise")
    return {
        "dist": _build("distribution", DataDistribution, lo, hi, target, noise),
        "n_grid": _grid(cfg["n_grid"], "n_grid", _count),
        **_parse_harness(cfg),
    }


def _parse_bounds(cfg: dict) -> dict:
    has_kappa = "kappa" in cfg
    if has_kappa == ("kernel" in cfg and "points" in cfg):
        raise ValueError("give exactly one of kappa / (kernel and points)")
    if has_kappa and "n" not in cfg:
        raise ValueError("n is required when kappa is given inline")
    if ("kernel" in cfg) != ("points" in cfg):
        raise ValueError("kernel and points must be given together")
    args = {
        key: float(_positive(cfg[key], key))
        for key in ("lambda", "eps", "c", "m", "kappa", "eta", "t", "x_max")
        if key in cfg
    }
    if "b_max" in cfg:
        args["b_max"] = float(_number(cfg["b_max"], "b_max", bound=">= 0"))
    if "n" in cfg:
        args["n"] = _count(cfg["n"], "n")
    if not has_kappa:
        args["kernel"] = _spec(KernelSpec.from_json_dict, cfg["kernel"], "kernel")
        args["pts"] = _points(cfg["points"], "points")
    return args


def _parse_spectrum(cfg: dict) -> dict:
    args = {
        "kernel": _spec(KernelSpec.from_json_dict, cfg["kernel"], "kernel"),
        "pts": _points(cfg["points"], "points"),
        "lambdas": [float(v) for v in _array(cfg["lambdas"], "lambdas", _positive)],
    }
    if "scale" in cfg:
        args["scale"] = float(_positive(cfg["scale"], "scale"))
    return args


def _validate_config(command: str, cfg) -> dict:
    """The arguments of the command's runner, parsed from ``cfg``; errors name the key."""
    table = _CONFIG_KEYS[command]
    required = [key for key, (needed, _) in table.items() if needed]
    _keys(cfg, "", required + ["output"], [*table, "output"])
    _string(cfg["output"], "output")
    _, _, parse, _ = _COMMANDS[command]
    return parse(cfg)


def _config_hash(cfg: dict) -> str:
    """sha1 of the effective config with the output key removed, so the hash
    identifies the computation, not the destination."""
    trimmed = {k: v for k, v in cfg.items() if k != "output"}
    blob = json.dumps(trimmed, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha1(blob).hexdigest()


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _residuals_csv(residuals: np.ndarray) -> str:
    lines = ["index,residual"]
    lines.extend(f"{i},{float(r)!r}" for i, r in enumerate(residuals))
    return "\n".join(lines) + "\n"


def _cmd_fit(cfg: dict, args: dict) -> tuple[str, ...]:
    fit = krr_fit(DataSet(args["pts"], args["values"]), args["lam"], args["kernel"])
    return _json_text(fit.to_json_dict()), _residuals_csv(fit.residuals)


def _cmd_interpolate(cfg: dict, args: dict) -> tuple[str, ...]:
    pts, values = args["pts"], args["values"]
    f = min_norm_interpolant(pts, values, args["kernel"])
    return _json_text(f.to_json_dict()), _residuals_csv(evaluate(f, pts) - values)


def _plot_text(report: ExperimentReport) -> str:
    lines = ["# log10_index_var log10_median_h_distance"]
    for idx, med in report.medians().items():
        if med > 0 and math.isfinite(med):
            lines.append(f"{math.log10(float(idx))!r} {math.log10(med)!r}")
    return "\n".join(lines) + "\n"


def _report_outputs(cfg: dict, report: ExperimentReport) -> tuple[str, ...]:
    try:
        rate = estimate_rate(report)._asdict()
    except DiagnosticsError:
        rate = None
    summary = {
        **report.metadata,
        "config_sha1": _config_hash(cfg),
        "row_count": len(report.rows),
        "flagged_rows": [
            {"index_var": r.index_var, "trial": r.trial, "seed": r.seed, "flag": r.flag}
            for r in report.flagged()
        ],
        "medians": [
            {"index_var": idx, "median_h_distance": med}
            for idx, med in report.medians().items()
        ],
        "rate": rate,
    }
    if summary["command"] == "thm2":
        finite = [r.decomp_residual for r in report.rows if math.isfinite(r.decomp_residual)]
        summary["max_decomposition_residual"] = max(finite) if finite else None
    return report.to_csv_text(), _json_text(summary), _plot_text(report)


def _cmd_bounds(cfg: dict, args: dict) -> tuple[str, ...]:
    lam = args["lambda"]
    if "kappa" in args:
        kappa, n, op = args["kappa"], args["n"], None
    else:
        kernel, pts = args["kernel"], args["pts"]
        op = EvaluationOperator(kernel, pts)
        kappa = sample_kappa(kernel, pts)
        n = args.get("n", len(pts))
    params = StabilityParams(c=args["c"], kappa=kappa, m=args["m"], n=n, lam=lam, eps=args["eps"])
    beta = beta_stability(params)
    p_n = stability_probability(params, beta)
    argmax, max_value = filter_max(n, lam)
    result = {
        "inputs": {k: v for k, v in cfg.items() if k != "output"},
        "config_sha1": _config_hash(cfg),
        "kappa": kappa,
        "n": n,
        "beta": beta,
        "p_n": p_n,
        "p_n_combined": stability_probability_combined(params),
        "p_n_vacuous": p_n >= 1.0,
        "sample_size_ok": params.sample_size_ok,
        "variance_radius": variance_radius(params.eps, lam),
        "filter_argmax": argmax,
        "filter_max_value": max_value,
        "filter_gain_bound": filter_gain_bound(n, lam),
    }
    if "eta" in args:
        result["eps_for_target"] = eps_for_target(args["eta"], lam)
    if "x_max" in args:
        result["sigma_admissible"] = sigma_admissible_ls(args["x_max"])
    if "t" in args and "b_max" in args:
        b_norm = args["b_max"] * math.sqrt(n)
        result["noise_bound"] = noise_operator_bound(n, args["t"], lam, b_norm)
    if op is not None:
        result["operator_norm_bound"] = operator_norm_bound_p(op)
        result["gram_min_eigenvalue"] = float(op.gram.eigen.eigenvalues[-1])
    return (_json_text(result),)


def _cmd_spectrum(cfg: dict, args: dict) -> tuple[str, ...]:
    op = EvaluationOperator(args["kernel"], args["pts"])
    g = op.gram
    n = g.n
    scale = args.get("scale", float(n))
    profiles = []
    for lam in args["lambdas"]:
        argmax, max_value = filter_max(n, lam)
        profiles.append(
            {
                "lambda": lam,
                "scale": scale,
                "shrinkage": [[gamma, fac] for gamma, fac in shrinkage_profile(g, lam, scale)],
                "filter_gains": [float(v) for v in filter_gains(g, lam)],
                "filter_gain_bound": filter_gain_bound(n, lam),
                "filter_argmax": argmax,
                "filter_max_value": max_value,
            }
        )
    result = {
        "config_sha1": _config_hash(cfg),
        "n": n,
        "kappa": sample_kappa(args["kernel"], args["pts"]),
        "eigenvalues": [float(w) for w in g.eigen.eigenvalues],
        "operator_norm_bound": operator_norm_bound_p(op),
        "profiles": profiles,
    }
    return (_json_text(result),)


_RESIDUALS = ".residuals.csv"
_REPORT = (".csv", ".summary.json", ".plot.dat")
# command -> (help line, output suffixes, config parser, runner).  The runner
# takes the config and the parsed arguments and returns one text per suffix.
# The harness runners look run_thm1 / run_thm2 up in this module when they
# run, so a wrapper installed here (perfbench's tracer installs one) is called.
_COMMANDS = {
    "fit": (
        "regularized least squares fit on a dataset",
        (".fit.json", _RESIDUALS),
        _parse_fit,
        _cmd_fit,
    ),
    "interpolate": (
        "minimal-norm interpolant through given values",
        (".interpolant.json", _RESIDUALS),
        functools.partial(_parse_data, value_key="values"),
        _cmd_interpolate,
    ),
    "thm1": (
        "growing-sample convergence experiment",
        _REPORT,
        _parse_thm1,
        lambda cfg, args: _report_outputs(cfg, run_thm1(**args)),
    ),
    "thm2": (
        "vanishing-noise convergence experiment",
        _REPORT,
        _parse_thm2,
        lambda cfg, args: _report_outputs(cfg, run_thm2(**args)),
    ),
    "bounds": (
        "stability and operator bounds for given constants",
        (".bounds.json",),
        _parse_bounds,
        _cmd_bounds,
    ),
    "spectrum": (
        "Gram spectrum with shrinkage and filter profiles",
        (".spectrum.json",),
        _parse_spectrum,
        _cmd_spectrum,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krstab",
        description="Kernel ridge regression experiments with deterministic outputs.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (text, *_) in _COMMANDS.items():
        p = sub.add_parser(
            name,
            help=text,
            description=text,
            epilog=_config_help(name),
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        p.add_argument("--config", required=True, help="path to the JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override the config's seed key")
        p.add_argument("--out", default=None, help="override the config's output prefix")
    return parser


def _write_outputs(outputs: dict[str, str]) -> list[str]:
    written: list[str] = []
    try:
        for path, text in outputs.items():
            parent = os.path.dirname(path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            with open(path, "w", encoding="utf-8", newline="") as fh:
                # Tracked once opened, so a failed write or close removes it too.
                written.append(path)
                fh.write(text)
    except OSError:
        for p in written:
            try:
                os.remove(p)
            except OSError:
                pass
        raise
    return written


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            with open(args.config, encoding="utf-8") as fh:
                cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{args.config}: invalid JSON ({exc})") from exc
        _object(cfg, "")
        if args.seed is not None:
            if "seed" not in _CONFIG_KEYS[args.command]:
                raise ValueError(f"--seed does not apply to the {args.command} command")
            cfg["seed"] = args.seed
        if args.out is not None:
            cfg["output"] = args.out
        parsed = _validate_config(args.command, cfg)
        _, suffixes, _, run = _COMMANDS[args.command]
        texts = run(cfg, parsed)
        written = _write_outputs({cfg["output"] + s: t for s, t in zip(suffixes, texts)})
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DiagnosticsError as exc:
        print(f"numerical diagnostics failure: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def main_entry() -> None:
    # The objects alive now (numpy's and krstab's modules and tables, about
    # 22k) live until exit; frozen, they are left out of every collection
    # during the run and of the full collections at interpreter exit.
    gc.freeze()
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
