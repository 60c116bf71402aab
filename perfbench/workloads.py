"""Inputs and output checks for the three benchmark workloads.

Every input config is generated here from the workload seed; the program under
test only sees the generated JSON files.  The checks read back the files the
CLI wrote and return one verdict per check.

thm1_growing
    The criterion-4 growing-sample grid (N = 32..2048, 10 trials).  Every row
    builds a fresh Gram matrix and factorizes it once, so the linalg layer does
    most of the work.  The workload seed goes in through ``--seed``.
thm2_design
    Vanishing noise on a fixed design of 1000 points in d = 4 drawn from the
    workload seed.  One cached factorization serves hundreds of solves, and the
    merged-expansion H-distances (an n x n x d broadcast per row) dominate.
cli_configs
    The six demo configs, each run as a fresh process: start-up, imports,
    validation and serialization dominate.  ``configs/`` holds copies of
    ``docs/configs``, so editing the docs does not change the workload.  It is
    not listed in ``BENCHMARK.json``: on the 2-vCPU virtual machine it was
    tuned on, the interquartile range of ten runs was 19-27% of the median,
    above the largest bound (25%) a metric may have.  Import and validation
    cost is still measured by ``setup_s`` and by the traced ``cli.*`` metrics
    of the two thm workloads.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIG_DIR = HERE / "configs"
REFERENCE_DIR = HERE / "references"

WORKLOADS = ("thm1_growing", "thm2_design", "cli_configs")
# The piece of ``calibrate.py`` whose time scales each workload's unit
# timings in ``run.py`` (set-up probes are scaled by ``broadcast`` on every
# workload).  Each is that workload's hot loop: thm2's kernel broadcasts and
# thm1's eigendecompositions slow down with the shared host as the matching
# piece does.  Over 12 minutes of alternating thm2 units and calibrations,
# scaling each unit by the broadcasts around it cut the spread of 50-second
# windows from 0.16 to 0.03 of the median; over 13 minutes of thm1 units,
# scaling by the eigendecompositions cut it from 0.06 to 0.03, while scaling
# by the broadcasts did not.
UNIT_CALIBRATION = {"thm1_growing": "eigh", "thm2_design": "broadcast"}

THM1_GRID = [32, 64, 128, 256, 512, 1024, 2048]
THM1_TRIALS = 10
THM1_MAX_RATIO = 0.5

THM2_POINTS = 1000
THM2_DIM = 4
THM2_BOX = 5.0
THM2_WIDTH = 0.5
THM2_TRIALS = 20
# Fixed target anchors inside [0, THM2_BOX]^4; the coefficients come from the
# docs thm2 config.
THM2_ANCHORS = [
    [1.0, 1.5, 2.5, 3.5],
    [2.0, 4.0, 1.0, 2.5],
    [3.0, 2.5, 3.5, 1.5],
    [4.0, 1.0, 2.0, 3.0],
    [2.5, 3.0, 4.0, 4.0],
]
THM2_SLACK = 1e-8
THM2_MAX_RESIDUAL = 1e-8

# Distance columns may move by a different but valid numerical route (a direct
# solve, a reused Gram matrix); their floating-point floor on these workloads is
# about 1e-7 of their value, so they are compared to the stored reference with
# this relative tolerance.  Every other CSV column must match byte for byte.
DISTANCE_COLUMNS = ("h_distance", "shrinkage_term", "noise_bound")
DISTANCE_RTOL = 1e-6

CLI_COMMANDS = ("bounds", "fit", "interpolate", "spectrum", "thm1", "thm2")
OUTPUT_SUFFIXES = {
    "bounds": (".bounds.json",),
    "fit": (".fit.json", ".residuals.csv"),
    "interpolate": (".interpolant.json", ".residuals.csv"),
    "spectrum": (".spectrum.json",),
    "thm1": (".csv", ".summary.json", ".plot.dat"),
    "thm2": (".csv", ".summary.json", ".plot.dat"),
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload."""

    command: str
    config: Path
    output: Path
    seed: int | None
    check: str  # "growing", "design" or "demo"

    def cli_args(self) -> list[str]:
        args = [self.command, "--config", str(self.config)]
        if self.seed is not None:
            args += ["--seed", str(self.seed)]
        return args

    def expected_outputs(self) -> list[Path]:
        return [Path(str(self.output) + s) for s in OUTPUT_SUFFIXES[self.command]]


@dataclass(frozen=True)
class Verdict:
    name: str
    ok: bool
    detail: str = ""


def _demo_config(command: str) -> dict:
    return json.loads((CONFIG_DIR / f"{command}.json").read_text(encoding="utf-8"))


def thm1_growing_config(output: Path) -> dict:
    cfg = _demo_config("thm1")
    cfg["n_grid"] = list(THM1_GRID)
    cfg["trials"] = THM1_TRIALS
    cfg["output"] = str(output)
    return cfg


def thm2_design_config(seed: int, output: Path) -> dict:
    base = _demo_config("thm2")
    rng = random.Random(seed)
    points = [
        [round(rng.uniform(0.0, THM2_BOX), 6) for _ in range(THM2_DIM)]
        for _ in range(THM2_POINTS)
    ]
    return {
        "points": points,
        "f_tilde": {
            "kernel": {"kind": "gaussian", "width": THM2_WIDTH},
            "anchors": THM2_ANCHORS,
            "coeffs": base["f_tilde"]["coeffs"],
        },
        "noise": base["noise"],
        "schedule": base["schedule"],
        "t_grid": base["t_grid"],
        "trials": THM2_TRIALS,
        "seed": seed,
        "output": str(output),
    }


def write_commands(workload: str, seed: int, workdir: Path) -> list[Command]:
    """Generate the workload's configs under ``workdir`` and return the
    commands that run them, in execution order."""
    cfg_dir = workdir / "configs"
    out_dir = workdir / "out"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "thm1_growing":
        plan = [("thm1", thm1_growing_config(out_dir / "thm1"), seed, "growing")]
    elif workload == "thm2_design":
        plan = [("thm2", thm2_design_config(seed, out_dir / "thm2"), None, "design")]
    elif workload == "cli_configs":
        plan = []
        for name in CLI_COMMANDS:
            cfg = _demo_config(name)
            cfg["output"] = str(out_dir / name)
            plan.append((name, cfg, seed if name in ("thm1", "thm2") else None, "demo"))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    commands = []
    for name, cfg, cmd_seed, check in plan:
        path = cfg_dir / f"{name}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        commands.append(Command(name, path, Path(cfg["output"]), cmd_seed, check))
    return commands


def load_reference(workload: str, seed: int) -> dict | None:
    """Stored outputs of the seed code for this seed, or None if none exist."""
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))["seeds"].get(str(seed))


def _split_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def csv_reference(text: str) -> dict:
    """The reference record of one experiment CSV: a digest of the
    non-distance columns and the distance columns as numbers."""
    header, rows = _split_csv(text)
    dist = [header.index(c) for c in DISTANCE_COLUMNS]
    keep = [i for i in range(len(header)) if i not in dist]
    exact = "\n".join(",".join(cells[i] for i in keep) for cells in [header] + rows)
    distances = {}
    for col, i in zip(DISTANCE_COLUMNS, dist):
        values = [float(cells[i]) for cells in rows]
        distances[col] = (
            None
            if all(math.isnan(v) for v in values)
            else [None if math.isnan(v) else float(f"{v:.12g}") for v in values]
        )
    return {
        "rows": len(rows),
        "nondistance_sha256": hashlib.sha256(exact.encode("utf-8")).hexdigest(),
        "distances": distances,
    }


def check_reference(label: str, text: str, ref: dict) -> list[Verdict]:
    got = csv_reference(text)
    out = [
        Verdict(
            f"{label}: non-distance columns match the reference",
            got["rows"] == ref["rows"] and got["nondistance_sha256"] == ref["nondistance_sha256"],
            f"{got['rows']} rows, reference {ref['rows']}",
        )
    ]
    header, rows = _split_csv(text)
    worst = 0.0
    ok = got["rows"] == ref["rows"]
    for col in DISTANCE_COLUMNS:
        want = ref["distances"][col]
        i = header.index(col)
        values = [float(cells[i]) for cells in rows]
        if want is None:
            ok = ok and all(math.isnan(v) for v in values)
            continue
        for v, w in zip(values, want):
            if w is None:
                ok = ok and math.isnan(v)
            elif w != 0.0:
                rel = abs(v - w) / abs(w)
                worst = max(worst, rel) if not math.isnan(rel) else math.inf
            else:
                ok = ok and v == 0.0
    ok = ok and worst <= DISTANCE_RTOL
    out.append(
        Verdict(
            f"{label}: distances within rtol {DISTANCE_RTOL:g} of the reference",
            ok,
            f"worst relative deviation {worst:.3e}",
        )
    )
    return out


def _parses(path: Path) -> str:
    """Empty string if the output file parses, else the reason."""
    text = path.read_text(encoding="utf-8")
    try:
        if path.suffix == ".json":
            json.loads(text)
        elif path.suffix == ".csv":
            rows = list(csv.reader(io.StringIO(text)))
            if len(rows) < 2:
                return "no data rows"
            for row in rows[1:]:
                if len(row) != len(rows[0]):
                    return "ragged row"
                [float(c) for c in row]
        else:
            for line in text.splitlines():
                if not line.startswith("#"):
                    if len([float(c) for c in line.split()]) != 2:
                        return "plot line without two numbers"
    except ValueError as exc:
        return str(exc)
    return ""


def flagged_rows(cmd: Command) -> int:
    """Rows the experiment flagged with a numerical diagnostic."""
    if cmd.command not in ("thm1", "thm2"):
        return 0
    summary = json.loads(Path(str(cmd.output) + ".summary.json").read_text(encoding="utf-8"))
    return len(summary["flagged_rows"])


def csv_rows(cmd: Command) -> int:
    """Data rows in the CSV outputs of a command whose outputs parse."""
    total = 0
    for path in cmd.expected_outputs():
        if path.suffix == ".csv":
            total += len(path.read_text(encoding="utf-8").splitlines()) - 1
    return total


def check_outputs(cmd: Command, reference: dict | None) -> list[Verdict]:
    """Checks on the outputs of one command that exited with code 0."""
    missing = [p.name for p in cmd.expected_outputs() if not p.is_file()]
    if missing:
        return [Verdict(f"{cmd.command}: outputs written", False, f"missing {missing}")]
    bad = {p.name: why for p in cmd.expected_outputs() if (why := _parses(p))}
    verdicts = [Verdict(f"{cmd.command}: outputs parse", not bad, str(bad) if bad else "")]
    if not bad and cmd.command in ("thm1", "thm2"):
        text = Path(str(cmd.output) + ".csv").read_text(encoding="utf-8")
        summary = json.loads(Path(str(cmd.output) + ".summary.json").read_text(encoding="utf-8"))
        if cmd.check == "growing":
            verdicts += _check_growing(text, summary)
        elif cmd.check == "design":
            verdicts += _check_design(text, summary)
        if reference is not None and cmd.command in reference:
            verdicts += check_reference(cmd.command, text, reference[cmd.command])
    return verdicts


def _check_growing(text: str, summary: dict) -> list[Verdict]:
    header, rows = _split_csv(text)
    idx, pn = header.index("index_var"), header.index("p_n")
    first: dict[str, float] = {}
    for cells in rows:
        first.setdefault(cells[idx], float(cells[pn]))
    pns = list(first.values())
    meds = {int(m["index_var"]): m["median_h_distance"] for m in summary["medians"]}
    lo, hi = THM1_GRID[0], THM1_GRID[-1]
    ratio = meds[hi] / meds[lo] if lo in meds and hi in meds else math.inf
    return [
        Verdict("thm1: no flagged rows", not summary["flagged_rows"], f"{len(summary['flagged_rows'])} flagged"),
        Verdict("thm1: p_n strictly decreasing", all(b < a for a, b in zip(pns, pns[1:]))),
        Verdict(
            f"thm1: median ratio N={hi}/N={lo} <= {THM1_MAX_RATIO}",
            ratio <= THM1_MAX_RATIO,
            f"ratio {ratio:.4f}",
        ),
    ]


def _check_design(text: str, summary: dict) -> list[Verdict]:
    header, rows = _split_csv(text)
    h, s, nb = (header.index(c) for c in DISTANCE_COLUMNS)
    excess = [float(c[h]) - float(c[s]) - float(c[nb]) for c in rows]
    over = sum(1 for e in excess if not e <= THM2_SLACK)
    resid = summary.get("max_decomposition_residual")
    return [
        Verdict("thm2: no flagged rows", not summary["flagged_rows"], f"{len(summary['flagged_rows'])} flagged"),
        Verdict(
            f"thm2: h <= shrinkage + noise_bound + {THM2_SLACK:g}",
            over == 0,
            f"{over} rows over; max h - bound {max(excess):.3e}",
        ),
        Verdict(
            f"thm2: decomposition residual <= {THM2_MAX_RESIDUAL:g}",
            resid is not None and resid <= THM2_MAX_RESIDUAL,
            f"max residual {resid}",
        ),
    ]
