"""Crossover table for the routes of ``resgrow.sigma_min_batch``.

    python3 tools/sigma_min_crossover.py [--repeats 5]

Prints microseconds per point for the batched SVD route, the inverse
Lanczos route with the Schur factorization included, and inverse Lanczos
with T factored once outside the timing, as an Operator reused across
batches pays for it, for n in {16, 32, 48, 64, 96, 128} and batch sizes
P in {1, 17, 33, 64, 96, 258}.  Each matrix is ``random_dense(n, n)``;
the points have Gaussian parts of standard deviation 0.5·sqrt(n), the
scale of the benchmark's resolvent points.  Times are medians over the
repeats, on one BLAS thread.  The thresholds ``_SCHUR_MIN_N`` and
``_SCHUR_MIN_POINTS`` in ``resgrow.linalg`` are read off this table.

A second table times, at P = 96, the batched SVD, the route
``sigma_min_batch`` takes (its choice of route included) and inverse
Lanczos with T factored outside the timing, and counts the points that
Lanczos hands back to the SVD because they overflow or reach the step
cap.  At n = 64 the route is inverse Lanczos on random_dense, Jordan
and Grcar, where the singular values cluster, so Lanczos converges
slowly and some points are redone.  The n = 32 rows and grid-map's two
non-diagonal specimens, shift [2,1,1,1] and jordan_block(8, 0), take
the SVD today; their Lanczos times show what lowering ``_SCHUR_MIN_N``
would do to them.  zigzag is diagonal and takes the min |a_ii - z|
formula at every n and batch size, without a Schur factorization, so
its rows at n = 4, 16 and 32 show what that formula saves below
``_SCHUR_MIN_N``.  The points have the same Gaussian scale,
0.5·sqrt(64) = 4, or scale 1.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from functools import partial
from pathlib import Path
from unittest import mock

# pinned before numpy is imported
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from resgrow import (  # noqa: E402
    Operator,
    circulant_weighted_shift_inverse,
    jordan_block,
    operator_from_inverse,
    random_dense,
    sigma_min_batch,
    zigzag_diagonal,
)
from resgrow.linalg import _inverse_lanczos, _sigma_min_svd  # noqa: E402

SIZES = (16, 32, 48, 64, 96, 128)
BATCHES = (1, 17, 33, 64, 96, 258)


def grcar(n: int) -> np.ndarray:
    """-1 on the subdiagonal, 1 on the diagonal and three superdiagonals."""
    return sum(np.eye(n, k=k) for k in range(4)) - np.eye(n, k=-1) + 0j


STRUCTURED = {
    **{f"random_dense({n}, {n})": partial(random_dense, n, n) for n in (64, 32)},
    **{f"jordan_block({n}, 0.5)": partial(jordan_block, n, 0.5) for n in (64, 32)},
    **{f"grcar({n})": partial(grcar, n) for n in (64, 32)},
    "shift [2,1,1,1]": lambda: operator_from_inverse(
        circulant_weighted_shift_inverse([2, 1, 1, 1])
    ),
    "jordan_block(8, 0)": partial(jordan_block, 8, 0.0),
    **{f"zigzag_diagonal({n})": partial(zigzag_diagonal, n) for n in (64, 4, 16, 32)},
}


def lanczos_route(a, zs):
    """The inverse Lanczos route, its Schur factorization and its SVD redo
    of unsettled points included, as one chunk of ``sigma_min_batch`` runs it."""
    return _inverse_lanczos(Operator(a).schur, a, zs)


def svd_redos(t, a, zs) -> int:
    """How many points of zs inverse Lanczos on T hands back to the SVD."""
    redone = []

    def counting(a, zs):
        redone.append(zs.shape[0])
        return _sigma_min_svd(a, zs)

    with mock.patch("resgrow.linalg._sigma_min_svd", counting):
        _inverse_lanczos(t, a, zs)
    return sum(redone)


def us_per_point(route, a, zs, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        route(a, zs)
        times.append(time.perf_counter() - start)
    return 1e6 * statistics.median(times) / zs.shape[0]


def cell(a, zs, repeats: int, *routes) -> str:
    """'svd / route / ...' microseconds per point for each route, by default
    ``lanczos_route``, right-aligned in 8 columns per time."""
    routes = (_sigma_min_svd, *(routes or (lanczos_route,)))
    times = [us_per_point(route, a, zs, repeats) for route in routes]
    # two decimals below 10 us: the Weyl formula takes under 1 us per point
    return " /".join(f"{t:.{0 if t >= 10 else 2}f}".rjust(6) for t in times).rjust(8 * len(times))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(0)
    # the first Schur call imports scipy.linalg; keep that out of the table
    lanczos_route(random_dense(16, 0), np.zeros(1, dtype=complex))
    head = "us per point (svd / lanczos / lanczos with T cached)"
    print(f"OPENBLAS_NUM_THREADS=1, median of {args.repeats}, {head}")
    print("    n " + "".join(f"{f'P={p}':>24}" for p in BATCHES))
    for n in SIZES:
        a = random_dense(n, n)
        cached = partial(_inverse_lanczos, Operator(a).schur)
        cells = []
        for p in BATCHES:
            zs = 0.5 * np.sqrt(n) * (rng.standard_normal(p) + 1j * rng.standard_normal(p))
            cells.append(cell(a, zs, args.repeats, lanczos_route, cached))
        print(f"{n:>5} " + "".join(cells))
    print("\nP = 96, us per point (svd / sigma_min_batch / lanczos with T cached)")
    print("and the points of 96 the SVD redoes after Lanczos")
    print(f"{'matrix':<22}{'scale 4':>24}{'redo':>6}{'scale 1':>24}{'redo':>6}")
    for name, make in STRUCTURED.items():
        a = make()
        t = Operator(a).schur
        cells = []
        for scale in (0.5 * np.sqrt(64), 1.0):
            zs = scale * (rng.standard_normal(96) + 1j * rng.standard_normal(96))
            cells.append(cell(a, zs, args.repeats, sigma_min_batch, partial(_inverse_lanczos, t)))
            cells.append(f"{svd_redos(t, a, zs):>6}")
        print(f"{name:<22}" + "".join(cells))

if __name__ == "__main__":
    main()
