"""Command line front end.

Each subcommand reads a JSON config file, parses it once into the library
objects its runner needs (unknown keys are rejected, numbers must be finite),
runs the requested computation, and writes its output files deterministically:
rerunning with the same config reproduces every output byte for byte.  Nothing
is written unless the whole command succeeds; on failure any partially written
files are removed.

Every config key is declared once, here, with its parser: a command's
top-level keys in the rows of ``_CONFIG_KEYS``, each with the parser that
reads its value, and each nested object's keys in that parser (``_kernel``,
``_noise``, ``_schedule``, ``_function``, ``_distribution``, ``_dataset``), all
through ``_keys``.  ``_validate_config`` parses every key given in one loop
over the table; the rules that tie keys together live in three checks that
run on the parsed values (``_check_data``, ``_check_thm2``,
``_check_bounds``).  Every rejection names the key path.

Exit codes: 0 success (all outputs written), 1 config error, 2 IO error,
3 numerical diagnostics failure.  A numpy operation whose result leaves the
float range is a config error.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import sys

try:
    # hashlib maps OpenSSL's libcrypto (~3.4 MB resident); try the lean built-in first
    from _sha1 import sha1 as _sha1
except ImportError:
    # an interpreter built without _sha1: the same digest from hashlib
    from hashlib import sha1 as _sha1

import numpy as np

from .experiments import (
    DataDistribution,
    ExperimentReport,
    NoiseProcess,
    _increasing,
    estimate_rate,
    run_thm1,
    run_thm2,
)
from .kernels import KernelSpec, PointSet, sample_kappa
from .linalg import DiagnosticsError, _as_count, _as_real
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
from .solver import DataSet, krr_fit, min_norm_interpolant, regularized_risk
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
    """A finite, non-bool JSON number within ``bound`` ("", "> 0" or ">= 0"),
    read by the library's one rule: ``linalg._as_count`` when ``integer``,
    which gives the int it equals, else ``linalg._as_real``, which returns
    it unchanged."""
    name = f"config key {path}:"
    if integer:
        return _as_count(value, name, {"> 0": 1, ">= 0": 0, "": None}[bound])
    return _as_real(value, name, bound)


_positive = functools.partial(_number, bound="> 0")
_count = functools.partial(_number, integer=True, bound="> 0")
_seed = functools.partial(_number, integer=True, bound=">= 0")


def _real(value, path: str, bound: str = "> 0") -> float:
    """A number within ``bound``, as a float."""
    return float(_number(value, path, bound=bound))


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
    return _increasing(_array(value, path, item), f"config key {path}:")


def _build(path: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``; a ValueError it raises names the config key."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"config key {path}: {exc}") from None


def _points(value, path: str) -> PointSet:
    return _build(path, PointSet, _rows(value, path))


def _kernel(obj, path: str) -> KernelSpec:
    _keys(obj, path, ("kind",), ("kind", "width", "degree", "offset"))
    params = {
        key: _number(obj[key], f"{path}/{key}", integer=key == "degree")
        for key in ("width", "degree", "offset")
        if key in obj
    }
    return _build(path, KernelSpec, obj["kind"], **params)


def _noise(obj, path: str) -> NoiseProcess:
    _keys(obj, path, ("kind", "b_max"), ("kind", "b_max", "sd"))
    b_max = float(_number(obj["b_max"], f"{path}/b_max"))
    sd = _number(obj["sd"], f"{path}/sd") if "sd" in obj else None
    return _build(path, NoiseProcess, obj["kind"], b_max, sd)


def _schedule(obj, path: str) -> Schedule:
    _keys(obj, path, ("lambda0", "exponent"), ("lambda0", "exponent", "family"))
    lambda0 = float(_number(obj["lambda0"], f"{path}/lambda0"))
    exponent = float(_number(obj["exponent"], f"{path}/exponent"))
    family = obj.get("family", "power")
    if family != "power":
        raise ValueError(f"config key {path}/family: unknown schedule family {family!r}")
    return _build(path, Schedule, lambda0, exponent)


def _function(obj, path: str) -> RepresenterFunction:
    _keys(obj, path, ("kernel", "anchors", "coeffs"))
    kernel = _kernel(obj["kernel"], f"{path}/kernel")
    anchors = _rows(obj["anchors"], f"{path}/anchors")
    coeffs = _array(obj["coeffs"], f"{path}/coeffs")
    return _build(path, RepresenterFunction, kernel, anchors, coeffs)


def _distribution(obj, path: str) -> DataDistribution:
    _keys(obj, path, ("box", "target", "noise"))
    box = _keys(obj["box"], f"{path}/box", ("lo", "hi"))
    lo, hi = (_array(box[key], f"{path}/box/{key}") for key in ("lo", "hi"))
    target = _function(obj["target"], f"{path}/target")
    noise = _noise(obj["noise"], f"{path}/noise")
    return _build(path, DataDistribution, lo, hi, target, noise)


def _dataset(obj, path: str, value_key: str) -> tuple[PointSet, np.ndarray]:
    _keys(obj, path, ("points", value_key))
    pts = _points(obj["points"], f"{path}/points")
    vals = np.asarray(_array(obj[value_key], f"{path}/{value_key}"), dtype=float)
    if vals.shape != (len(pts),):
        raise ValueError(f"dataset has {len(pts)} points but {vals.shape[0]} {value_key}")
    return pts, vals


_KERNEL_HELP = (
    "kernel spec: {kind:'gaussian', width>0} or {kind:'linear'} or "
    "{kind:'polynomial', degree: integer>=1, offset>=0}"
)
_DATASET_HELP = "inline data {points: [[...],...], %s: [...]}; exactly one of dataset / dataset_csv"
_DATASET_CSV = (False, _string,
                "CSV file path, header x1,...,xd,y; exactly one of dataset / dataset_csv")
_SCHEDULE_HELP = (
    "regularization schedule {{family:'power', lambda0>0, exponent}}; "
    "lambda({i}) = lambda0 * {i}^-exponent"
)
_HARNESS_KEYS = {
    "trials": (True, _count, "trials per grid point, integer >= 1"),
    "seed": (True, _seed, "master seed, integer >= 0"),
    "eta": (False, _positive,
            "target H-distance for the certified-closeness columns (default 0.1)"),
    "c_bound": (False, _positive, "loss admissibility constant C; default 4 * M"),
}

# Per command: config key -> (required, parser, help line), besides the
# required output key that every command takes.  The table drives the
# unknown/missing-key checks, the parse of each key given (its parser takes
# the value and the key path), the --help epilog and which commands take --seed.
_CONFIG_KEYS: dict[str, dict[str, tuple]] = {
    "fit": {
        "kernel": (True, _kernel, _KERNEL_HELP),
        "dataset": (False, functools.partial(_dataset, value_key="labels"),
                    _DATASET_HELP % "labels"),
        "dataset_csv": _DATASET_CSV,
        "lambda": (True, _real, "regularization parameter, number > 0 (never rescaled by n)"),
    },
    "interpolate": {
        "kernel": (True, _kernel, _KERNEL_HELP),
        "dataset": (False, functools.partial(_dataset, value_key="values"),
                    _DATASET_HELP % "values"),
        "dataset_csv": _DATASET_CSV,
    },
    "thm2": {
        "points": (True, _points, "fixed design points, one inner array per point"),
        "f_tilde": (True, _function,
                    "noiseless target as a kernel expansion {kernel, anchors, coeffs}; "
                    "its kernel drives the whole run"),
        "noise": (True, _noise,
                  "noise spec {kind: uniform|rademacher|truncated_gaussian, b_max>=0, "
                  "sd>0 for truncated_gaussian only}"),
        "schedule": (True, _schedule, _SCHEDULE_HELP.format(i="t")),
        "t_grid": (True, functools.partial(_grid, item=_positive),
                   "noise-shrink factors, strictly increasing positive numbers"),
        "m_bound": (False, _positive,
                    "label-scale bound M; default ||f_tilde||_H * kappa + b_max"),
        **_HARNESS_KEYS,
    },
    "thm1": {
        "distribution": (True, _distribution,
                         "sampling distribution {box: {lo, hi}, target: function, noise}; "
                         "inputs are uniform on the box, labels are target(x) + noise"),
        "schedule": (True, _schedule, _SCHEDULE_HELP.format(i="n")),
        "n_grid": (True, functools.partial(_grid, item=_count),
                   "sample sizes, strictly increasing integers >= 1"),
        "m_bound": (False, _positive,
                    "label-scale bound M; default ||target||_H * kappa + b_max"),
        **_HARNESS_KEYS,
    },
    "bounds": {
        "lambda": (True, _real, "regularization parameter, number > 0"),
        "eps": (True, _real,
                "closeness level for the probability and radius formulas, number > 0"),
        "c": (True, _real, "loss admissibility constant C > 0"),
        "m": (True, _real, "loss/label scale bound M > 0"),
        "kappa": (False, _real,
                  "kernel diagonal bound sup sqrt(K(x,x)); give kappa+n or kernel+points"),
        "n": (False, _count,
              "sample size; required with kappa, defaults to len(points) otherwise"),
        "kernel": (False, _kernel, _KERNEL_HELP),
        "points": (False, _points,
                   "points whose Gram matrix supplies kappa and the operator bounds"),
        "eta": (False, _real,
                "optional target H-distance; adds the sufficient closeness level"),
        "t": (False, _real,
              "optional noise-shrink factor, given with b_max; adds the noise bound"),
        "b_max": (False, functools.partial(_real, bound=">= 0"),
                  "optional noise amplitude, given with t; "
                  "noise bound uses ||b||_2 <= b_max * sqrt(n)"),
        "x_max": (False, _real,
                  "optional bound on |f(x) - y|; adds squared-loss admissibility constant"),
    },
    "spectrum": {
        "kernel": (True, _kernel, _KERNEL_HELP),
        "points": (True, _points, "points whose Gram spectrum is reported"),
        "lambdas": (True, functools.partial(_array, item=_real),
                    "regularization values to profile, each > 0"),
        "scale": (False, _real,
                  "eigenvalue scale in shrinkage lambda/(gamma/scale + lambda); default n"),
    },
}
# The runner argument a config key feeds, where the two names differ.
_ARGUMENT = {"points": "pts", "distribution": "dist"}


def _config_help(command: str) -> str:
    lines = ["config keys:"]
    for key, (required, _, text) in _CONFIG_KEYS[command].items():
        lines.append(f"  {key} [{'required' if required else 'optional'}]: {text}")
    _, suffixes, _, _ = _COMMANDS[command]
    outputs = ", ".join("<prefix>" + suffix for suffix in suffixes)
    lines.append(f"  output [required]: output path prefix; writes {outputs}")
    lines.append("numbers must be finite; integer keys take integral numbers.")
    if "seed" in _CONFIG_KEYS[command]:
        lines.append("flags --seed / --out override the config's seed / output keys.")
    else:
        lines.append("flag --out overrides the config's output key.")
    return "\n".join(lines)


def _read_dataset_csv(path: str) -> tuple[PointSet, np.ndarray]:
    # Imported here: a thm command, which reads no CSV, skips its import.
    import csv

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            raw = list(reader)
        except csv.Error as exc:  # such as a field beyond the csv module's size limit
            raise ValueError(f"{path} line {reader.line_num}: {exc}") from None
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


def _check_data(args: dict) -> None:
    """``fit`` / ``interpolate``: exactly one dataset source; a CSV file is
    read into ``dataset``."""
    if ("dataset" in args) == ("dataset_csv" in args):
        raise ValueError("config must contain exactly one of dataset / dataset_csv")
    if "dataset_csv" in args:
        args["dataset"] = _read_dataset_csv(args.pop("dataset_csv"))


def _check_thm2(args: dict) -> None:
    """``thm2``: the design points have the target's dimension."""
    pts, f_tilde = args["pts"], args["f_tilde"]
    if pts.dim != f_tilde.anchors.dim:
        raise ValueError(
            f"config key points: dimension {pts.dim} does not match the "
            f"f_tilde anchors' dimension {f_tilde.anchors.dim}"
        )


def _check_bounds(args: dict) -> None:
    """``bounds``: kappa + n or kernel + points, and t with b_max."""
    has_kappa = "kappa" in args
    if has_kappa == ("kernel" in args and "pts" in args):
        raise ValueError("give exactly one of kappa / (kernel and points)")
    if has_kappa and "n" not in args:
        raise ValueError("n is required when kappa is given inline")
    if ("kernel" in args) != ("pts" in args):
        raise ValueError("kernel and points must be given together")
    if ("t" in args) != ("b_max" in args):
        missing, given = ("b_max", "t") if "t" in args else ("t", "b_max")
        raise ValueError(f"config key {missing}: required with {given}; give both or neither")


def _validate_config(command: str, cfg) -> dict:
    """The arguments of the command's runner, parsed from ``cfg`` key by key
    and then passed through the command's cross-key check; errors name the key."""
    table = _CONFIG_KEYS[command]
    required = [key for key, (needed, _, _) in table.items() if needed]
    _keys(cfg, "", required + ["output"], [*table, "output"])
    output = _string(cfg["output"], "output")
    if os.path.basename(output) in ("", ".", ".."):
        raise ValueError(f"config key output: expected a file name at the end, got {output!r}")
    args = {
        _ARGUMENT.get(key, key): parse(cfg[key], key)
        for key, (_, parse, _) in table.items()
        if key in cfg
    }
    _, _, check, _ = _COMMANDS[command]
    if check is not None:
        check(args)
    return args


def _config_hash(cfg: dict) -> str:
    """sha1 of the effective config with the output key removed, so the hash
    identifies the computation, not the destination."""
    trimmed = {k: v for k, v in cfg.items() if k != "output"}
    blob = json.dumps(trimmed, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return _sha1(blob).hexdigest()


def _non_finite_key(obj, path: str = "") -> str | None:
    """The key path of the first non-finite float in ``obj``, or None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else path or "<root>"
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return None
    for key, value in items:
        found = _non_finite_key(value, f"{path}/{key}" if path else str(key))
        if found is not None:
            return found
    return None


def _json_text(obj) -> str:
    """Standard JSON: a non-finite number, which JSON cannot hold, is a
    ValueError naming its output key instead of an Infinity or NaN token."""
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        key = _non_finite_key(obj)
        raise ValueError(f"output key {key} leaves the float range for these inputs") from None


def _residuals_csv(residuals: np.ndarray) -> str:
    lines = ["index,residual"]
    lines.extend(f"{i},{float(r)!r}" for i, r in enumerate(residuals))
    return "\n".join(lines) + "\n"


def _cmd_fit(cfg: dict, args: dict) -> tuple[str, ...]:
    data, lam = DataSet(*args["dataset"]), args["lambda"]
    f = krr_fit(data, lam, args["kernel"])
    fit = {**f.to_json_dict(), "lambda": lam, "objective": regularized_risk(f, data, lam)}
    return _json_text(fit), _residuals_csv(evaluate(f, data.pts) - data.labels)


def _cmd_interpolate(cfg: dict, args: dict) -> tuple[str, ...]:
    pts, values = args["dataset"]
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
    if "t" in args:
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
# command -> (help line, output suffixes, cross-key check or None, runner).  The runner
# takes the config and the parsed arguments and returns one text per suffix.
# The harness runners look run_thm1 / run_thm2 up in this module when they
# run, so a wrapper installed here (perfbench's tracer installs one) is called.
_COMMANDS = {
    "fit": (
        "regularized least squares fit on a dataset",
        (".fit.json", _RESIDUALS),
        _check_data,
        _cmd_fit,
    ),
    "interpolate": (
        "minimal-norm interpolant through given values",
        (".interpolant.json", _RESIDUALS),
        _check_data,
        _cmd_interpolate,
    ),
    "thm1": (
        "growing-sample convergence experiment",
        _REPORT,
        None,
        lambda cfg, args: _report_outputs(cfg, run_thm1(**args)),
    ),
    "thm2": (
        "vanishing-noise convergence experiment",
        _REPORT,
        _check_thm2,
        lambda cfg, args: _report_outputs(cfg, run_thm2(**args)),
    ),
    "bounds": (
        "stability and operator bounds for given constants",
        (".bounds.json",),
        _check_bounds,
        _cmd_bounds,
    ),
    "spectrum": (
        "Gram spectrum with shrinkage and filter profiles",
        (".spectrum.json",),
        None,
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
        # Registered everywhere, so main rejects it as a config error (exit 1);
        # listed only where the config has a seed key.
        seed_help = "override the config's seed key"
        if "seed" not in _CONFIG_KEYS[name]:
            seed_help = argparse.SUPPRESS
        p.add_argument("--seed", type=int, default=None, help=seed_help)
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
        except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
            raise ValueError(f"{args.config}: invalid JSON ({exc})") from exc
        _object(cfg, "")
        if args.seed is not None:
            if "seed" not in _CONFIG_KEYS[args.command]:
                raise ValueError(f"--seed does not apply to the {args.command} command")
            cfg["seed"] = args.seed
        if args.out is not None:
            cfg["output"] = args.out
        # A numpy operation that leaves the float range fails the command
        # instead of printing a warning; the kernels' exact-limit overflows
        # are silenced where they happen.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            parsed = _validate_config(args.command, cfg)
            _, suffixes, _, run = _COMMANDS[args.command]
            texts = run(cfg, parsed)
        written = _write_outputs({cfg["output"] + s: t for s, t in zip(suffixes, texts)})
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FloatingPointError as exc:  # such as "overflow encountered in matmul"
        print(f"config error: these inputs leave the float range: {exc}", file=sys.stderr)
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
