"""Run one krstab CLI command in-process with trace wrappers installed.

    python3 perfbench/trace_child.py SPANS.jsonl <command> --config CONFIG [--seed N]

Times ``import krstab.cli`` in this fresh process, installs the wrappers from
``tracing``, calls ``krstab.cli.main`` and writes the spans to SPANS.jsonl.  The
last line of standard output is a JSON object with the exit code, the import
time, and per-span calls, total and self seconds plus the computed counts.
"""

import sys
import time


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import krstab.cli

    import_s = time.perf_counter() - start

    import json

    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    code = tracer.call("cli.main", krstab.cli.main, argv)
    tracer.write(spans_path)
    print(json.dumps({"code": code, "import_s": import_s, **tracer.summary()}))
    return code


if __name__ == "__main__":
    sys.exit(main())
