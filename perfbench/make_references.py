"""Regenerate the stored reference outputs in ``references/``.

    python3 perfbench/make_references.py WORKLOAD FIRST_SEED LAST_SEED

Run from the repository root on the commit whose outputs become the
reference.  Runs the workload's thm commands once per seed through the CLI
(same environment as the benchmark) and records, per CSV, a digest of the
non-distance columns and the distance columns (see ``workloads.csv_reference``).
Seeds already in the file are replaced; others are kept.
"""

import json
import sys
import time
from pathlib import Path

import run
import workloads


def main() -> int:
    workload, first, last = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    root = Path.cwd()
    workdir = root / ".bench_work" / f"references-{workload}"
    env = run.child_env(root)
    path = workloads.REFERENCE_DIR / f"{workload}.json"
    stored = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {"seeds": {}}
    for seed in range(first, last + 1):
        record = {}
        for cmd in workloads.write_commands(workload, seed, workdir):
            if cmd.command not in ("thm1", "thm2"):
                continue
            child = run.run_child(
                [sys.executable, "-m", "krstab.cli", *cmd.cli_args()], env, workdir, time.monotonic() + 600
            )
            if child.code != 0:
                print(f"seed {seed}: {cmd.command} exited with {child.code}: {child.stderr}", file=sys.stderr)
                return 1
            failed = [v for v in workloads.check_outputs(cmd, None) if not v.ok]
            if failed:
                print(f"seed {seed}: {cmd.command} fails checks: {failed}", file=sys.stderr)
                return 1
            text = Path(str(cmd.output) + ".csv").read_text(encoding="utf-8")
            record[cmd.command] = workloads.csv_reference(text)
        stored["seeds"][str(seed)] = record
        print(f"seed {seed}: {sorted(record)}", flush=True)
    seeds = sorted(stored["seeds"].items(), key=lambda kv: int(kv[0]))
    lines = ",\n".join(f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}" for k, v in seeds)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    path.write_text('{"seeds": {\n' + lines + "\n}}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
