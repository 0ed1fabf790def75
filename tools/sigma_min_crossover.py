"""Crossover table for the two routes of ``resgrow.sigma_min_batch``.

    python3 tools/sigma_min_crossover.py [--repeats 5]

Prints microseconds per point for the batched SVD route and the Schur
route, the Schur factorization included, for n in {16, 32, 48, 64, 96,
128} and batch sizes P in {1, 17, 33, 64, 96, 258}.  Each matrix is
``random_dense(n, n)``; the points have Gaussian parts of standard deviation
0.5·sqrt(n), the scale of the benchmark's resolvent points.  Times are
medians over the repeats, on one BLAS thread.  The thresholds
``_SCHUR_MIN_N`` and ``_SCHUR_MIN_POINTS`` in ``resgrow.linalg`` are
read off this table.

A second table times both routes at n = 64, P = 96 on random_dense and
on structured matrices: zigzag takes the diagonal shortcut, and on
Jordan and Grcar the singular values cluster, so inverse Lanczos
converges slowly and some points reach the step cap and are redone by
the SVD.  Its points have the same Gaussian scale, 0.5·sqrt(64) = 4,
or scale 1.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from pathlib import Path

# pinned before numpy is imported
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from resgrow import Operator, jordan_block, random_dense, zigzag_diagonal  # noqa: E402
from resgrow.linalg import _sigma_min_schur, _sigma_min_svd  # noqa: E402

SIZES = (16, 32, 48, 64, 96, 128)
BATCHES = (1, 17, 33, 64, 96, 258)
STRUCTURED = {
    "random_dense(64, 64)": lambda: random_dense(64, 64),
    "jordan_block(64, 0.5)": lambda: jordan_block(64, 0.5),
    # -1 on the subdiagonal, 1 on the diagonal and three superdiagonals
    "grcar(64)": lambda: sum(np.eye(64, k=k) for k in range(4)) - np.eye(64, k=-1) + 0j,
    "zigzag_diagonal(64)": lambda: zigzag_diagonal(64),
}


def schur_route(a, zs):
    """The Schur route, its factorization and its SVD redo of unsettled
    points included, as one chunk of ``sigma_min_batch`` runs it."""
    return _sigma_min_schur(Operator(a).schur, a, zs)


def us_per_point(route, a, zs, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        route(a, zs)
        times.append(time.perf_counter() - start)
    return 1e6 * statistics.median(times) / zs.shape[0]


def cell(a, zs, repeats: int) -> str:
    """'svd / schur' microseconds per point, right-aligned in 16 columns."""
    svd = us_per_point(_sigma_min_svd, a, zs, repeats)
    schur = us_per_point(schur_route, a, zs, repeats)
    return f"{svd:>7.0f} /{schur:>6.0f}".rjust(16)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(0)
    # the first Schur call imports scipy.linalg; keep that out of the table
    schur_route(random_dense(16, 0), np.zeros(1, dtype=complex))
    print(f"OPENBLAS_NUM_THREADS=1, median of {args.repeats}, us per point (svd / schur)")
    print("    n " + "".join(f"{f'P={p}':>16}" for p in BATCHES))
    for n in SIZES:
        a = random_dense(n, n)
        cells = []
        for p in BATCHES:
            zs = 0.5 * np.sqrt(n) * (rng.standard_normal(p) + 1j * rng.standard_normal(p))
            cells.append(cell(a, zs, args.repeats))
        print(f"{n:>5} " + "".join(cells))
    print("\nn = 64, P = 96, us per point (svd / schur)")
    print(f"{'matrix':<22}{'scale 4':>16}{'scale 1':>16}")
    for name, make in STRUCTURED.items():
        a = make()
        cells = []
        for scale in (0.5 * np.sqrt(64), 1.0):
            zs = scale * (rng.standard_normal(96) + 1j * rng.standard_normal(96))
            cells.append(cell(a, zs, args.repeats))
        print(f"{name:<22}" + "".join(cells))


if __name__ == "__main__":
    main()
