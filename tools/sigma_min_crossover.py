"""Crossover tables for the routes of ``resgrow.sigma_min_batch``.

    python3 tools/sigma_min_crossover.py [--repeats 5]

Every time is of ``sigma_min_batch`` as it ships, in microseconds per
point, the median over the repeats, on one BLAS thread; a column forces
a route by patching ``resgrow.linalg`` (see ``Route``).  Every SVD, the
redo of the points inverse Lanczos gives up on included, is split over
the CPUs as shipped, from ``_SPLIT_MIN_ROWS`` rows per slice.

The first table times the batched SVD, inverse Lanczos on a new Operator
and inverse Lanczos with T cached, for n in {16, 32, 48, 64, 96, 128}
and batch sizes P in {1, 17, 33, 64, 96, 258}, on ``random_dense(n, n)``
at points with Gaussian parts of standard deviation 0.5·sqrt(n), the
scale of the benchmark's resolvent points.  The thresholds
``_SCHUR_MIN_N`` and ``_SCHUR_MIN_POINTS`` are read off this table.

A second table times, at P = 96 and Gaussian point scales
0.5·sqrt(64) = 4 and 1, the batched SVD, ``sigma_min_batch`` with
nothing forced and the Schur route with T cached, and counts the points
that inverse Lanczos on T, run untimed, leaves NaN for the SVD because
they overflow or reach the step cap.  At n = 64 the route is inverse
Lanczos on random_dense, Jordan and Grcar, where the singular values
cluster, so Lanczos converges slowly and some points are redone.
The n = 32 rows and grid-map's two non-diagonal specimens, shift
[2,1,1,1] and jordan_block(8, 0), take the SVD today; their last column
shows what lowering ``_SCHUR_MIN_N`` would do to them.  zigzag is
diagonal and takes the min |a_ii - z| formula in both last columns, so
its rows at n = 4, 16 and 32 show what it saves below ``_SCHUR_MIN_N``;
no route runs the Lanczos its redo counts are of.

A third table times the batched SVD as shipped, then with the split
forced at every batch size, on one thread and over the w CPUs the
process may run on (the library's pool, its workers pinned), for n in
{2, 4, 8, 16, 32, 48, 64, 96} on ``random_dense(n, n)``.  Each row has
two batches of w slices: P just below the row floor, the largest slices
of fewer than ``_SPLIT_MIN_ROWS`` rows (points x n), and P at it, the
smallest of at least that many, where the shipped SVD splits too.  The
last column of each batch is the split's time over the one thread's.
``_SPLIT_MIN_ROWS`` is the row count from which the split wins at every
n.  On 2 CPUs at --repeats 21, n = 16 to 96 took 1.00-1.06x as long
split at 448-496 rows per slice and 0.52-0.56x at 512-576; n = 2, 4 and
8 won on both sides (0.58-0.65x), so there the floor gives some of the
gain away.  With one CPU the last two times of a cell are the same loop.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import statistics
import sys
import time
from functools import partial
from pathlib import Path
from typing import NamedTuple
from unittest import mock

# pinned before numpy is imported
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from resgrow import (  # noqa: E402
    Operator,
    grcar,
    jordan_block,
    random_dense,
    sigma_min_batch,
    weighted_shift,
    zigzag_diagonal,
)
from resgrow import linalg  # noqa: E402
from resgrow.linalg import _inverse_lanczos  # noqa: E402

SIZES = (16, 32, 48, 64, 96, 128)
BATCHES = (1, 17, 33, 64, 96, 258)
SPLIT_SIZES = (2, 4, 8, 16, 32, 48, 64, 96)


STRUCTURED = {
    **{f"random_dense({n}, {n})": partial(random_dense, n, n) for n in (64, 32)},
    **{f"jordan_block({n}, 0.5)": partial(jordan_block, n, 0.5) for n in (64, 32)},
    **{f"grcar({n})": partial(grcar, n) for n in (64, 32)},
    "shift [2,1,1,1]": partial(weighted_shift, [2, 1, 1, 1]),
    "jordan_block(8, 0)": partial(jordan_block, 8, 0.0),
    **{f"zigzag_diagonal({n})": partial(zigzag_diagonal, n) for n in (64, 4, 16, 32)},
}


class Route(NamedTuple):
    """A route of ``sigma_min_batch``, forced by (target, name, value) patches:
    the batched SVD sets ``Operator._sigma_route`` to None, the Schur route at
    any n and batch size ``_SCHUR_MIN_N`` and ``_SCHUR_MIN_POINTS`` to 1.  A
    fresh route is timed on a new Operator per call (see ``us_per_point``)."""

    patches: tuple = ()
    fresh: bool = False

    def forced(self):
        """The patches, in place while the block runs."""
        stack = contextlib.ExitStack()
        for target, name, value in self.patches:
            stack.enter_context(mock.patch.object(target, name, value))
        return stack

    def __call__(self, a, zs):
        """``sigma_min_batch`` of zs on this route, on a new Operator of a."""
        with self.forced():
            return sigma_min_batch(Operator(a), zs)


SHIPPED = Route()
SVD = Route(((Operator, "_sigma_route", None),))
CACHED = Route(((linalg, "_SCHUR_MIN_N", 1), (linalg, "_SCHUR_MIN_POINTS", 1)))
LANCZOS = CACHED._replace(fresh=True)


def split_over(workers: int) -> Route:
    """The batched SVD split at every batch size over workers threads (one: unsplit)."""
    return Route(((linalg, "_SPLIT_MIN_ROWS", 1), (linalg, "_workers", lambda: workers)))


def svd_redos(t, zs) -> int:
    """How many points of zs inverse Lanczos on T leaves NaN for the SVD."""
    return int(np.isnan(_inverse_lanczos(t, zs)).sum())


def us_per_point(route: Route, a, zs, repeats: int) -> float:
    """Median microseconds per point of ``sigma_min_batch`` on route, on Operators
    of a built outside the timing: a new one per call for a fresh route, else one
    that has run the batch once, so its route and T are kept as a reused one's are."""
    times = []
    with route.forced():
        ops = [Operator(a) for _ in range(repeats)] if route.fresh else [Operator(a)] * repeats
        if not route.fresh:
            sigma_min_batch(ops[0], zs)
        for op in ops:
            start = time.perf_counter()
            sigma_min_batch(op, zs)
            times.append(time.perf_counter() - start)
    return 1e6 * statistics.median(times) / zs.shape[0]


def floor_batches(n: int, workers: int) -> tuple[int, int]:
    """The batch sizes of workers equal slices just below and at
    ``_SPLIT_MIN_ROWS`` rows per slice, at size n."""
    at = -(-linalg._SPLIT_MIN_ROWS // n)
    return workers * (at - 1), workers * at


def cell(a, zs, repeats: int, *routes) -> str:
    """'svd / route / ...' microseconds per point for each route, by default
    ``LANCZOS``, right-aligned in 8 columns per time."""
    routes = (SVD, *(routes or (LANCZOS,)))
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
    LANCZOS(random_dense(16, 0), np.zeros(1, dtype=complex))
    head = "us per point (svd / lanczos / lanczos with T cached)"
    print(f"OPENBLAS_NUM_THREADS=1, median of {args.repeats}, {head}")
    print("    n " + "".join(f"{f'P={p}':>24}" for p in BATCHES))
    for n in SIZES:
        a = random_dense(n, n)
        cells = []
        for p in BATCHES:
            zs = 0.5 * np.sqrt(n) * (rng.standard_normal(p) + 1j * rng.standard_normal(p))
            cells.append(cell(a, zs, args.repeats, LANCZOS, CACHED))
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
            cells.append(cell(a, zs, args.repeats, SHIPPED, CACHED))
            cells.append(f"{svd_redos(t, zs):>6}")
        print(f"{name:<22}" + "".join(cells))
    workers = linalg._workers()
    split = split_over(workers)
    print(f"\nthe SVD route, us per point (svd / sigma_min_batch on 1 / on {workers} threads)")
    print(f"and the split's time over one thread's, {workers} slices of P / {workers} points")
    head = f"{'P':>6}{'rows':>6}{'below the row floor':>24}{'split':>7}"
    print("    n" + head + head.replace("below the", "at the"))
    for n in SPLIT_SIZES:
        a = random_dense(n, n)
        cells = []
        for p in floor_batches(n, workers):
            zs = 0.5 * np.sqrt(n) * (rng.standard_normal(p) + 1j * rng.standard_normal(p))
            times = [us_per_point(r, a, zs, args.repeats) for r in (SVD, split_over(1), split)]
            ratio = times[2] / times[1]
            cells.append(f"{p:>6}{p // workers * n:>6}{columns(times)}{ratio:>6.2f}x")
        print(f"{n:>5}" + "".join(cells))

if __name__ == "__main__":
    main()
