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
Lanczos leaves NaN for the SVD because they overflow or reach the step
cap.  Every Lanczos column of the two tables includes the batched SVD of
those points on one thread.  At n = 64 the route is inverse Lanczos on
random_dense, Jordan and Grcar, where the singular values cluster, so
Lanczos converges slowly and some points are redone.  The n = 32 rows and grid-map's two
non-diagonal specimens, shift [2,1,1,1] and jordan_block(8, 0), take
the SVD today; their Lanczos times show what lowering ``_SCHUR_MIN_N``
would do to them.  zigzag is diagonal and takes the min |a_ii - z|
formula at every n and batch size, without a Schur factorization, so
its rows at n = 4, 16 and 32 show what that formula saves below
``_SCHUR_MIN_N``.  The points have the same Gaussian scale,
0.5·sqrt(64) = 4, or scale 1.

A third table times the batched SVD route of ``sigma_min_batch`` on one
thread and split over the w CPUs the process may run on, through the
library's pool with its workers pinned, for n in {2, 4, 8, 16, 32, 48,
64, 96} (``random_dense(n, n)``; every batch takes the SVD, as n <
``_SCHUR_MIN_N`` or P < ``_SCHUR_MIN_POINTS``), with the split forced.
Each row has two batches of w slices: P just below the row floor, the
largest slices of fewer than ``_SPLIT_MIN_ROWS`` rows (points x n), and
P at it, the smallest slices of at least that many.  The last column of
each batch is the split's time over the one thread's.
``_SPLIT_MIN_ROWS`` is the row count per slice from which the split wins
at every n.  On 2 CPUs at --repeats 21, n = 16 to 96 took 1.00-1.06x as
long split at 448-496 rows per slice and 0.52-0.56x at 512-576; n = 2,
4 and 8 won on both sides (0.58-0.65x), so there the floor gives some of
the gain away.  With one CPU the last two times of a cell are the same
loop.
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
from resgrow import linalg  # noqa: E402
from resgrow.linalg import _inverse_lanczos, _sigma_min_svd  # noqa: E402

SIZES = (16, 32, 48, 64, 96, 128)
BATCHES = (1, 17, 33, 64, 96, 258)
SPLIT_SIZES = (2, 4, 8, 16, 32, 48, 64, 96)


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


def svd_route(a, zs):
    """The batched SVD of every shift A - zI, on one thread."""
    return _sigma_min_svd(a - zs[:, None, None] * np.eye(a.shape[0]), zs)


def lanczos_on(t):
    """Inverse Lanczos on T, then the batched SVD of the points it leaves
    NaN, on one thread: a route of (a, zs) with T factored outside it."""

    def route(a, zs):
        out = _inverse_lanczos(t, zs)
        left = np.isnan(out)
        out[left] = svd_route(a, zs[left])
        return out

    return route


def lanczos_route(a, zs):
    """``lanczos_on`` with the Schur factorization of A inside the route."""
    return lanczos_on(Operator(a).schur)(a, zs)


def svd_redos(t, zs) -> int:
    """How many points of zs inverse Lanczos on T leaves NaN for the SVD."""
    return int(np.isnan(_inverse_lanczos(t, zs)).sum())


def us_per_point(route, a, zs, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        route(a, zs)
        times.append(time.perf_counter() - start)
    return 1e6 * statistics.median(times) / zs.shape[0]


def svd_on(workers: int):
    """``sigma_min_batch`` with the split forced at every batch size, over
    workers threads; one worker is the unsplit loop."""

    def route(a, zs):
        with (
            mock.patch.object(linalg, "_SPLIT_MIN_ROWS", 1),
            mock.patch.object(linalg, "_workers", lambda: workers),
        ):
            return sigma_min_batch(a, zs)

    return route


def floor_batches(n: int, workers: int) -> tuple[int, int]:
    """The batch sizes of workers equal slices just below and at
    ``_SPLIT_MIN_ROWS`` rows per slice, at size n."""
    at = -(-linalg._SPLIT_MIN_ROWS // n)
    return workers * (at - 1), workers * at


def cell(a, zs, repeats: int, *routes) -> str:
    """'svd / route / ...' microseconds per point for each route, by default
    ``lanczos_route``, right-aligned in 8 columns per time."""
    routes = (svd_route, *(routes or (lanczos_route,)))
    return columns([us_per_point(route, a, zs, repeats) for route in routes])


def columns(times) -> str:
    """'t / t / ...' right-aligned in 8 columns per time."""
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
        cached = lanczos_on(Operator(a).schur)
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
            cells.append(cell(a, zs, args.repeats, sigma_min_batch, lanczos_on(t)))
            cells.append(f"{svd_redos(t, zs):>6}")
        print(f"{name:<22}" + "".join(cells))
    workers = linalg._workers()
    split = svd_on(workers)
    split(random_dense(4, 0), np.zeros(2 * workers, dtype=complex))  # makes the pool
    print(f"\nthe SVD route, us per point (svd / sigma_min_batch on 1 / on {workers} threads)")
    print(f"and the split's time over one thread's, {workers} slices of P / {workers} points")
    head = f"{'P':>6}{'rows':>6}{'below the row floor':>24}{'split':>7}"
    print("    n" + head + head.replace("below the", "at the"))
    for n in SPLIT_SIZES:
        a = random_dense(n, n)
        cells = []
        for p in floor_batches(n, workers):
            zs = 0.5 * np.sqrt(n) * (rng.standard_normal(p) + 1j * rng.standard_normal(p))
            routes = (svd_route, svd_on(1), split)
            times = [us_per_point(route, a, zs, args.repeats) for route in routes]
            ratio = times[2] / times[1]
            cells.append(f"{p:>6}{p // workers * n:>6}{columns(times)}{ratio:>6.2f}x")
        print(f"{n:>5}" + "".join(cells))

if __name__ == "__main__":
    main()
