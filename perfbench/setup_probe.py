"""Set-up probe: import ``krstab.cli``, then load and validate configs.

    python3 perfbench/setup_probe.py [--facts] COMMAND CONFIG SEED [COMMAND CONFIG SEED ...]

SEED is ``-`` when the command takes none; otherwise it overrides the config's
seed key, as ``--seed`` does on the command line.  A config that fails
validation exits with code 1.  With ``--facts`` the last line of standard output
is a JSON object with the interpreter, numpy and BLAS versions and the path
``krstab`` was imported from.
"""

import json
import sys


def main() -> int:
    args = sys.argv[1:]
    facts = args[:1] == ["--facts"]
    if facts:
        args = args[1:]
    import krstab.cli

    for command, path, seed in zip(args[0::3], args[1::3], args[2::3]):
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
        if seed != "-":
            cfg["seed"] = int(seed)
        try:
            krstab.cli._validate_config(command, cfg)
        except ValueError as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            return 1
    if facts:
        import platform

        import numpy as np

        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        print(
            json.dumps(
                {
                    "python": platform.python_version(),
                    "numpy": np.__version__,
                    "blas_name": blas.get("name"),
                    "blas_version": blas.get("version"),
                    "krstab": krstab.__file__,
                }
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
