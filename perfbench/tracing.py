"""Spans around the public functions of each krstab module, recorded from
outside the program.

``install`` replaces every function in ``TABLE`` with a wrapper at each place
the name is looked up: every ``krstab`` module attribute that refers to the
function, so ``krstab.experiments.krr_fit`` (bound by ``from .solver import
krr_fit``) is traced as well as ``krstab.solver.krr_fit``; methods are
replaced on their class.  Batch samplers are wrapped, not the per-draw
SplitMix64 methods.

A span's self time is its duration minus the durations of its direct child
spans.  The counts below are computed from argument and result shapes, so
they repeat exactly for the same workload and seed (all but
``cli.bytes_written`` repeat for every seed):

* ``linalg.factor_n3``: sum of n^3 over factorized n x n matrices;
* ``kernels.kernel_entries``: sum of n * m over kernel matrices;
* ``kernels.temp_bytes_max``: largest n * m * d * 8 broadcast temporary of a
  gaussian kernel matrix;
* ``rkhs.merged_anchors``: sum of anchors in merged expansions;
* ``rng.draws``: values returned by the batch samplers (n per noise vector,
  n * d per point set);
* ``cli.bytes_written``: UTF-8 bytes handed to the output writer;
* ``experiments.rows``: report rows produced.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types


def _dim(points) -> int:
    shape = getattr(points, "points", points).shape
    return shape[1] if len(shape) == 2 else 1


def _count_factor(counts, args, result):
    n = getattr(args[0], "entries", args[0]).shape[0]
    counts["linalg.factor_n3"] += n**3


def _count_kernel(counts, args, result):
    n, m = result.shape
    counts["kernels.kernel_entries"] += n * m
    if args[0].kind == "gaussian":
        temp = n * m * _dim(args[1]) * 8
        counts["kernels.temp_bytes_max"] = max(counts["kernels.temp_bytes_max"], temp)


def _count_merged(counts, args, result):
    counts["rkhs.merged_anchors"] += len(result.anchors)


def _count_noise(counts, args, result):
    counts["rng.draws"] += len(result)


def _count_points(counts, args, result):
    counts["rng.draws"] += result.points.size


def _count_rows(counts, args, result):
    counts["experiments.rows"] += len(result.rows)


def _count_bytes(counts, args, result):
    counts["cli.bytes_written"] += sum(len(t.encode("utf-8")) for t in args[0].values())


COUNTS = (
    "linalg.factor_n3",
    "kernels.kernel_entries",
    "kernels.temp_bytes_max",
    "rkhs.merged_anchors",
    "rng.draws",
    "cli.bytes_written",
    "experiments.rows",
)
COMPUTED = COUNTS + ("linalg.solves_per_factorization",)

# (defining module, attribute or Class.method, span name, count hook)
TABLE = [
    ("krstab.linalg", "sym_eigen", "linalg.sym_eigen", _count_factor),
    ("krstab.linalg", "regularized_solve", "linalg.regularized_solve", None),
    ("krstab.linalg", "pinv_solve", "linalg.pinv_solve", None),
    ("krstab.kernels", "kernel_matrix", "kernels.kernel_matrix", _count_kernel),
    ("krstab.kernels", "GramMatrix.__init__", "kernels.gram_init", None),
    ("krstab.rkhs", "h_distance", "rkhs.h_distance", None),
    ("krstab.rkhs", "combine", "rkhs.combine", _count_merged),
    ("krstab.rkhs", "evaluate", "rkhs.evaluate", None),
    ("krstab.solver", "krr_fit", "solver.krr_fit", None),
    ("krstab.solver", "min_norm_interpolant", "solver.min_norm_interpolant", None),
    ("krstab.operators", "decomposition_residual", "operators.decomposition_residual", None),
    ("krstab.operators", "shrinkage_term", "operators.shrinkage_term", None),
    ("krstab.experiments", "NoiseProcess.sample", "rng.sample", _count_noise),
    ("krstab.experiments", "DataDistribution.sample_x", "rng.sample", _count_points),
    ("krstab.stability", "Schedule.value", "stability", None),
    ("krstab.experiments", "run_thm1", "experiments.run", _count_rows),
    ("krstab.experiments", "run_thm2", "experiments.run", _count_rows),
    ("krstab.experiments", "ExperimentReport.to_csv_text", "cli.serialize", None),
    ("krstab.cli", "_validate_config", "cli.validate", None),
    ("krstab.cli", "_json_text", "cli.serialize", None),
    ("krstab.cli", "_plot_text", "cli.serialize", None),
    ("krstab.cli", "_residuals_csv", "cli.serialize", None),
    ("krstab.cli", "_write_outputs", "cli.serialize", _count_bytes),
]

_ON_EVERY_RUN = [
    "linalg.sym_eigen",
    "linalg.regularized_solve",
    "kernels.kernel_matrix",
    "kernels.gram_init",
    "rkhs.h_distance",
    "rkhs.combine",
    "rkhs.evaluate",
    "solver.krr_fit",
    "rng.sample",
    "stability",
    "experiments.run",
    "cli.validate",
    "cli.serialize",
]
_FIXED_DESIGN = [
    "linalg.pinv_solve",
    "solver.min_norm_interpolant",
    "operators.decomposition_residual",
    "operators.shrinkage_term",
]
# Spans each workload must record; a missing one means a wrapper no longer
# intercepts the call (or the program stopped using a traced function).
EXPECTED_SPANS = {
    "thm1_growing": _ON_EVERY_RUN,
    "thm2_design": _ON_EVERY_RUN + _FIXED_DESIGN,
    "cli_configs": _ON_EVERY_RUN + _FIXED_DESIGN,
}


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def summary(self) -> dict:
        """Calls, total and self seconds per span name, plus the counts."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        spans: dict[str, dict] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            agg = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child[i]
        return {"spans": spans, "counts": dict(self.counts)}

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(
                    json.dumps({"name": name, "start": start - t0, "end": end - t0, "parent": parent})
                    + "\n"
                )


def _targets() -> list[tuple[str, str, str, object]]:
    stability = sys.modules["krstab.stability"]
    formulas = [
        ("krstab.stability", name, "stability", None)
        for name, obj in vars(stability).items()
        if isinstance(obj, types.FunctionType)
        and obj.__module__ == stability.__name__
        and not name.startswith("_")
    ]
    return TABLE + formulas


def install(tracer: Tracer) -> None:
    """Wrap every traced function at each krstab attribute bound to it.

    Call after ``import krstab.cli``, which imports every module.
    """
    modules = [m for name, m in sys.modules.items() if name == "krstab" or name.startswith("krstab.")]
    for module_name, attr, span, count in _targets():
        owner = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, tracer.wrap(span, cls.__dict__[meth], count))
            continue
        original = getattr(owner, attr)
        wrapper = tracer.wrap(span, original, count)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def merge(summaries: list[dict]) -> dict:
    """Sum the summaries of the commands of one unit (maximum for the
    largest-temporary count)."""
    spans: dict[str, dict] = {}
    counts = dict.fromkeys(COUNTS, 0)
    for s in summaries:
        for name, agg in s["spans"].items():
            into = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += agg[key]
        for name, value in s["counts"].items():
            if name == "kernels.temp_bytes_max":
                counts[name] = max(counts[name], value)
            else:
                counts[name] += value
    return {"spans": spans, "counts": counts}


def layer_metrics(summary: dict, import_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one unit: name -> (value, unit).  ``_s`` names are
    self times unless they end in ``_total_s``."""
    spans, counts = summary["spans"], summary["counts"]

    def stat(name, key):
        return spans.get(name, {}).get(key, 0)

    factorizations = stat("linalg.sym_eigen", "calls")
    solves = stat("linalg.regularized_solve", "calls") + stat("linalg.pinv_solve", "calls")
    return {
        "linalg.sym_eigen_s": (stat("linalg.sym_eigen", "self_s"), "s"),
        "linalg.factorizations": (factorizations, "count"),
        "linalg.factor_n3": (counts["linalg.factor_n3"], "count"),
        "linalg.regularized_solve_s": (stat("linalg.regularized_solve", "self_s"), "s"),
        "linalg.regularized_solve_calls": (stat("linalg.regularized_solve", "calls"), "count"),
        "linalg.pinv_solve_s": (stat("linalg.pinv_solve", "self_s"), "s"),
        "linalg.pinv_solve_calls": (stat("linalg.pinv_solve", "calls"), "count"),
        "linalg.solves_per_factorization": (
            solves / factorizations if factorizations else 0.0,
            "ratio",
        ),
        "kernels.kernel_matrix_s": (stat("kernels.kernel_matrix", "self_s"), "s"),
        "kernels.kernel_matrix_calls": (stat("kernels.kernel_matrix", "calls"), "count"),
        "kernels.kernel_entries": (counts["kernels.kernel_entries"], "count"),
        "kernels.temp_bytes_max": (counts["kernels.temp_bytes_max"], "B"),
        "kernels.gram_init_s": (stat("kernels.gram_init", "self_s"), "s"),
        "kernels.grams": (stat("kernels.gram_init", "calls"), "count"),
        "rkhs.h_distance_s": (stat("rkhs.h_distance", "self_s"), "s"),
        "rkhs.h_distance_total_s": (stat("rkhs.h_distance", "total_s"), "s"),
        "rkhs.h_distance_calls": (stat("rkhs.h_distance", "calls"), "count"),
        "rkhs.combine_s": (stat("rkhs.combine", "self_s"), "s"),
        "rkhs.merged_anchors": (counts["rkhs.merged_anchors"], "count"),
        "rkhs.evaluate_s": (stat("rkhs.evaluate", "self_s"), "s"),
        "solver.krr_fit_s": (stat("solver.krr_fit", "self_s"), "s"),
        "solver.krr_fit_total_s": (stat("solver.krr_fit", "total_s"), "s"),
        "solver.min_norm_interpolant_s": (stat("solver.min_norm_interpolant", "self_s"), "s"),
        "operators.decomposition_residual_s": (
            stat("operators.decomposition_residual", "self_s"),
            "s",
        ),
        "operators.shrinkage_term_s": (stat("operators.shrinkage_term", "self_s"), "s"),
        "rng.sample_s": (stat("rng.sample", "self_s"), "s"),
        "rng.draws": (counts["rng.draws"], "count"),
        "stability.s": (stat("stability", "self_s"), "s"),
        "experiments.run_s": (stat("experiments.run", "self_s"), "s"),
        "experiments.rows": (counts["experiments.rows"], "count"),
        "cli.import_s": (import_s, "s"),
        "cli.validate_s": (stat("cli.validate", "self_s"), "s"),
        "cli.serialize_s": (stat("cli.serialize", "self_s"), "s"),
        "cli.bytes_written": (counts["cli.bytes_written"], "B"),
        "cli.main_s": (stat("cli.main", "self_s"), "s"),
    }
