"""krstab benchmark: drives the ``krstab`` CLI as child processes.

Run from the repository root:

    python3 perfbench/run.py --workload thm1_growing --seed 1 --seconds 50 --trace 0

Workloads are described in ``workloads.py``.  Every child runs the package
from ``src/`` of the current directory with one BLAS thread, one at a time.

``--trace 0`` measures the end-to-end metrics.  One untimed warm-up process
first imports ``krstab.cli`` and validates the workload's configs.  Then whole
units (one thm sweep, or one round of the six demo commands) run until the
unit boundary nearest to ``--seconds``; at least one runs.  A set-up probe, a
fresh process that imports ``krstab.cli`` and loads and validates the
workload's configs, runs before the first unit and after each unit, and after
the last unit until there are ``PROBE_REPEATS``, so the probes sample the
whole run rather than its first seconds.  The rates and ``cpu_s`` are totals
over all units of the run.

The speed of the shared host this benchmark was built on drifts by 20-40% over
minutes, and the times of set-up and of the thm workloads move with it.  Each
set-up probe is followed by a calibration (``calibrate.py``): fixed pieces of
numpy work like the thm workloads' hot loops, which import nothing from
krstab.  Timings are scaled to a host on which each piece takes its time in
``CALIBRATION_REF_S``.  A probe's speed factor is its ``broadcast`` time over
the reference.  ``workloads.UNIT_CALIBRATION`` names the piece for each
workload's units; a unit's factor is that piece's mean time in the
calibrations just before and just after the unit, over the reference (1 on a
workload with no piece named).  A unit's wall and CPU times and a probe's
wall time are divided by their factor.  A change to the program does not
move the factors, so it moves the scaled metrics as it moves the raw ones; the
unscaled figures and the calibrations are printed with every result.

* ``rows_per_s``: CSV rows written per second of scaled child wall time;
* ``commands_per_s``: CLI commands completed per second of scaled child wall
  time;
* ``setup_s``: median scaled set-up probe wall time;
* ``cpu_s``: scaled user plus system CPU seconds per command, from
  ``os.wait4``;
* ``peak_rss_mb``: median over units of the largest peak resident set of a
  child in the unit.

``--trace 1`` runs pairs of one untraced unit and one traced unit (each
command through ``trace_child.py``) and reports the per-layer metrics of
``tracing.layer_metrics`` as medians over traced units, plus
``trace.overhead_s``: traced unit wall time minus untraced unit wall time.

Every command's outputs are checked (``workloads.check_outputs``).  The run
counts commands, CSV rows and checks as attempted operations; nonzero exits,
flagged rows and failed checks are failures, and ``fail_frac`` is their ratio.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
PROBE_REPEATS = 7
# About the mean calibration times on the 2-vCPU Xeon virtual machine the
# benchmark was built on; the scaled metrics equal the raw ones on a host this
# fast.
CALIBRATION_REF_S = {"broadcast": 0.5, "eigh": 0.45}
# Every child gets one BLAS thread, so the parent commit and a change are
# measured with the same setting and a child never competes with itself for
# the cores.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Hard limit on one run, below the 180 s a run may take.
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "rows_per_s": "1/s",
    "commands_per_s": "1/s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Child:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: str
    stderr: str


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)


@dataclass
class Context:
    """What every unit of one run shares."""

    workload: str
    workdir: Path
    env: dict[str, str]
    deadline: float
    commands: list[workloads.Command]
    reference: dict | None
    verdicts: dict[str, bool] = field(default_factory=dict)


@dataclass
class Unit:
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    rows: int = 0
    commands: int = 0
    traces: list[dict] = field(default_factory=list)
    import_s: float = 0.0


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in THREAD_VARS:
        env[var] = BLAS_THREADS
    return env


def run_child(argv: list[str], env: dict, cwd: Path, deadline: float) -> Child:
    """Run one child to completion (killed at ``deadline``) and read its
    resource usage from ``os.wait4``, which reports this child alone."""
    with open(cwd / "child.out", "w+", encoding="utf-8") as out, open(
        cwd / "child.err", "w+", encoding="utf-8"
    ) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(deadline - time.monotonic(), 0.0))
            if not ready:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        except BaseException:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            raise
        finally:
            _, status, usage = os.wait4(proc.pid, 0)
            os.close(pidfd)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(
            code=proc.returncode,
            wall=wall,
            cpu=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            stdout=out.read(),
            stderr=err.read(),
        )


def _tail(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def probe_argv(commands: list[workloads.Command], facts: bool) -> list[str]:
    argv = [sys.executable, str(HERE / "setup_probe.py")] + (["--facts"] if facts else [])
    for cmd in commands:
        argv += [cmd.command, str(cmd.config), "-" if cmd.seed is None else str(cmd.seed)]
    return argv


def probe(ctx: Context, tally: Tally, setup: list[float], calibration: list[dict]) -> None:
    """One set-up probe, then one calibration."""
    child = run_child(probe_argv(ctx.commands, facts=False), ctx.env, ctx.workdir, ctx.deadline)
    tally.add(child.code == 0, f"set-up probe exited with {child.code}")
    setup.append(child.wall)
    child = run_child([sys.executable, str(HERE / "calibrate.py")], ctx.env, ctx.workdir, ctx.deadline)
    if child.code != 0:
        raise BenchError(f"calibration failed with {child.code}: {child.stderr.strip()}")
    calibration.append(json.loads(child.stdout))


def run_unit(ctx: Context, traced: bool, tally: Tally) -> Unit:
    unit = Unit()
    for cmd in ctx.commands:
        for stale in cmd.expected_outputs():
            stale.unlink(missing_ok=True)
        if traced:
            spans = ctx.workdir / "spans" / f"{cmd.command}.jsonl"
            argv = [sys.executable, str(HERE / "trace_child.py"), str(spans), *cmd.cli_args()]
        else:
            argv = [sys.executable, "-m", "krstab.cli", *cmd.cli_args()]
        child = run_child(argv, ctx.env, ctx.workdir, ctx.deadline)
        unit.wall += child.wall
        unit.cpu += child.cpu
        unit.rss_mb = max(unit.rss_mb, child.rss_mb)
        unit.commands += 1
        tally.add(child.code == 0, f"{cmd.command} exited with {child.code}: {_tail(child.stderr)}")
        if child.code != 0:
            continue
        if traced:
            info = json.loads(child.stdout.strip().splitlines()[-1])
            unit.traces.append(info)
            unit.import_s += info["import_s"]
        verdicts = workloads.check_outputs(cmd, ctx.reference)
        for verdict in verdicts:
            tally.add(verdict.ok, f"{verdict.name} ({verdict.detail})")
            ctx.verdicts[verdict.name] = ctx.verdicts.get(verdict.name, True) and verdict.ok
        if not verdicts[0].ok:
            continue
        rows = workloads.csv_rows(cmd)
        flagged = workloads.flagged_rows(cmd)
        unit.rows += rows
        tally.attempted += rows
        tally.failed += flagged
        if flagged:
            tally.notes.append(f"{cmd.command}: {flagged} flagged rows")
    return unit


def measure(ctx: Context, seconds: float, step) -> list:
    """Repeat ``step`` until the run ends at the repetition boundary nearest
    to ``seconds`` (judged by the previous repetition's duration), so a run
    of long units neither loses nor gains more than half a unit; at least
    once, and never past the deadline."""
    results = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        results.append(step())
        last = time.monotonic() - t0
        now = time.monotonic()
        if now - start + last / 2 > seconds or now + last > ctx.deadline:
            return results


def src_lines(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (root / "src").rglob("*.py"))


def machine_facts(root: Path, probe: Child) -> dict:
    facts = json.loads(probe.stdout.strip().splitlines()[-1])
    if not Path(facts.pop("krstab")).resolve().is_relative_to((root / "src").resolve()):
        raise BenchError("krstab was not imported from ./src")
    facts.update(
        nproc=os.cpu_count(),
        cpus_usable=len(os.sched_getaffinity(0)),
        blas_threads=BLAS_THREADS,
        machine=platform.machine(),
        src_lines=src_lines(root),
    )
    return facts


def end_to_end(
    units: list[Unit], unit_speed: list[float], setup: list[float], probe_speed: list[float]
) -> dict[str, float]:
    wall = sum(u.wall / f for u, f in zip(units, unit_speed))
    commands = sum(u.commands for u in units)
    return {
        "rows_per_s": sum(u.rows for u in units) / wall,
        "commands_per_s": commands / wall,
        "setup_s": statistics.median(t / f for t, f in zip(setup, probe_speed)),
        "cpu_s": sum(u.cpu / f for u, f in zip(units, unit_speed)) / commands,
        "peak_rss_mb": statistics.median(u.rss_mb for u in units),
    }


def per_layer(pairs: list[tuple[Unit, Unit]], ctx: Context, tally: Tally) -> dict[str, tuple[float, str]]:
    per_unit = []
    expected = tracing.EXPECTED_SPANS[ctx.workload]
    for _, traced in pairs:
        summary = tracing.merge(traced.traces)
        missing = [s for s in expected if summary["spans"].get(s, {}).get("calls", 0) == 0]
        tally.add(not missing, f"trace: expected spans recorded nothing: {missing}")
        per_unit.append(tracing.layer_metrics(summary, traced.import_s))
    out = {
        name: (statistics.median(m[name][0] for m in per_unit), unit)
        for name, (_, unit) in per_unit[0].items()
    }
    out["trace.overhead_s"] = (statistics.median(t.wall - p.wall for p, t in pairs), "s")
    return out


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="krstab benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def run(args: argparse.Namespace) -> dict:
    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "krstab" / "cli.py").is_file():
        raise BenchError(f"no krstab sources under {root / 'src'}; run from the repository root")
    workdir = root / ".bench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "spans").mkdir(parents=True)
    ctx = Context(
        workload=args.workload,
        workdir=workdir,
        env=child_env(root),
        deadline=started + DEADLINE_S,
        commands=workloads.write_commands(args.workload, args.seed, workdir),
        reference=workloads.load_reference(args.workload, args.seed),
    )
    tally = Tally()

    warm = run_child(probe_argv(ctx.commands, facts=True), ctx.env, workdir, ctx.deadline)
    if warm.code != 0:
        raise BenchError(f"set-up probe failed with {warm.code}: {warm.stderr.strip()}")
    facts = machine_facts(root, warm)

    if args.trace:
        pairs = measure(
            ctx,
            args.seconds,
            lambda: (run_unit(ctx, False, tally), run_unit(ctx, True, tally)),
        )
        metrics = per_layer(pairs, ctx, tally)
        samples = {"untraced, traced unit wall s": [(p.wall, t.wall) for p, t in pairs]}
    else:
        setup: list[float] = []
        calibration: list[dict] = []

        def unit_then_probe() -> Unit:
            unit = run_unit(ctx, False, tally)
            probe(ctx, tally, setup, calibration)
            return unit

        probe(ctx, tally, setup, calibration)
        measured = measure(ctx, args.seconds, unit_then_probe)
        while len(setup) < PROBE_REPEATS:
            probe(ctx, tally, setup, calibration)
        speed = {k: [c[k] / ref for c in calibration] for k, ref in CALIBRATION_REF_S.items()}
        probe_speed = speed["broadcast"]
        if ctx.workload in workloads.UNIT_CALIBRATION:
            around = speed[workloads.UNIT_CALIBRATION[ctx.workload]]
            # Unit i ran between probes i and i + 1.
            unit_speed = [(a + b) / 2 for a, b in zip(around, around[1:])]
        else:
            unit_speed = [1.0] * len(measured)
        e2e = end_to_end(measured, unit_speed, setup, probe_speed)
        raw = end_to_end(measured, [1.0] * len(measured), setup, [1.0] * len(setup))
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in e2e.items()}
        samples = {
            "set-up probe s": setup,
            "calibration s": calibration,
            "unit wall s": [u.wall for u in measured],
            "unscaled " + ", ".join(raw): list(raw.values()),
        }
    return {
        "facts": facts,
        "samples": samples,
        "reference": ctx.reference is not None,
        "verdicts": ctx.verdicts,
        "tally": tally,
        "metrics": metrics,
    }


def report(args: argparse.Namespace, res: dict) -> None:
    tally = res["tally"]
    print(f"krstab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("facts: " + json.dumps(res["facts"], sort_keys=True))
    for name, values in res["samples"].items():
        print(f"{name} ({len(values)}): " + json.dumps(values))
    ref = "stored reference used" if res["reference"] else "no stored reference for this seed"
    print(f"checks ({ref}, distance rtol {workloads.DISTANCE_RTOL:g}):")
    for name, ok in res["verdicts"].items():
        print(f"  {'PASS' if ok else 'FAIL'}  {name}")
    for note in tally.notes[:20]:
        print(f"  failure: {note}")
    print(f"fail_frac = {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.6g} "
          "(commands + CSV rows + checks)")
    kind = "per-layer (self times unless *_total_s; per unit)" if args.trace else "end-to-end"
    print(f"{kind} metrics:")
    for name, (value, unit) in res["metrics"].items():
        tag = "  computed" if name in tracing.COMPUTED else ""
        print(f"  {name:36s} {value:>16.6g} {unit}{tag}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
            }
        )
    )


def _terminate(signum, frame) -> None:
    # Raise in the main thread, so ``run_child`` kills and reaps its child.
    sys.exit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        res = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    report(args, res)
    return 0


if __name__ == "__main__":
    sys.exit(main())
