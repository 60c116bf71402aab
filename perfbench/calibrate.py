"""Machine-speed calibration: time fixed pieces of work that are not krstab.

    python3 perfbench/calibrate.py

Prints one JSON object with the wall seconds of each piece.  The pieces are
the operations that dominate the thm workloads, written out here:

* ``broadcast`` (thm2): gaussian kernel matrices of 1000 points in d = 4 by an
  n x n x d broadcast, each applied to a vector, as ``rkhs.h_distance`` does on
  the merged expansion;
* ``eigh`` (thm1): LAPACK symmetric eigendecompositions of a 1024 x 1024
  gaussian Gram matrix, as ``linalg.sym_eigen`` does on every thm1 row.

It imports nothing from ``krstab``, so a change to the program cannot move it.
``run.py`` runs it between units and scales the units' times by it, which
cancels the drift in speed of a shared host.
"""

import json
import time

import numpy as np


def broadcast() -> float:
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.0, 5.0, (1000, 4))
    coeffs = rng.standard_normal(1000)
    total = 0.0
    for _ in range(8):
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
        gram = np.exp(-d2 / (2.0 * 0.5**2))
        total += float(coeffs @ (gram @ coeffs))
    return total


def eigh() -> float:
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.0, 4.0, (1024, 1))
    gram = np.exp(-((pts - pts.T) ** 2) / (2.0 * 0.8**2)) + 1e-3 * np.eye(1024)
    return sum(float(np.linalg.eigh(gram)[0][-1]) for _ in range(2))


def main() -> None:
    times = {}
    for work in (broadcast, eigh):
        start = time.perf_counter()
        work()
        times[work.__name__] = time.perf_counter() - start
    print(json.dumps(times))


if __name__ == "__main__":
    main()
