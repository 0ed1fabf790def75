"""The three benchmark workloads: inputs, the timed unit, and its checks.

Every input is generated here from the workload seed with numpy; the
library only ever sees the finished matrices and points.  A workload
is a fixed list of passes, each a list of units.  The end-to-end run
goes through all passes in rounds; the traced run repeats pass 0.  So
the units, and their counts, are the same in every run of a seed.

The unit functions call the library through module attributes
(``resgrow.find_path``, ...) at call time, so the names the tracer
rebinds are the ones used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import resgrow
from resgrow import serialize


# Check names that repeat the library's own negative verdict (an
# invalid certificate, a growth bound that did not hold).  Such a unit
# failed; every other failed check means the output is wrong.
VERDICTS = frozenset({"certificate-invalid", "growth-bound"})


@dataclass(frozen=True)
class Unit:
    """One timed operation.  ``label`` names the input family."""

    label: str
    args: tuple


@dataclass
class Workload:
    name: str
    passes: list[list[Unit]]
    run: Callable[[Unit], Any]
    # returns the list of failed checks; empty means the output is correct
    check: Callable[[Unit, Any], list[str]]
    warmup: list[Unit]


def _sigma_min(a: np.ndarray, z: complex) -> float:
    """Reference sigma_min(A - zI) from numpy, independent of the library."""
    return float(np.linalg.svd(a - z * np.eye(a.shape[0]), compute_uv=False)[-1])


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def _interleave(units: list[Unit]) -> list[Unit]:
    """Spread each label evenly over the pass, so that a run that stops
    part way through a pass still sees every family in proportion."""
    groups: dict[str, list[Unit]] = {}
    for u in units:
        groups.setdefault(u.label, []).append(u)
    keyed = [((i + 0.5) / len(g), j, i) for j, g in enumerate(groups.values())
             for i in range(len(g))]
    members = list(groups.values())
    return [members[j][i] for _, j, i in sorted(keyed)]


def _shift(weights) -> np.ndarray:
    return resgrow.operator_from_inverse(resgrow.circulant_weighted_shift_inverse(weights))


def grcar(n: int) -> np.ndarray:
    """Grcar matrix: -1 on the subdiagonal, 1 on the diagonal and the
    first three superdiagonals."""
    a = np.diag(-np.ones(n - 1), -1)
    for k in range(4):
        a += np.diag(np.ones(n - k), k)
    return a.astype(complex)


# --- path-suite ---------------------------------------------------------
#
# Unit: find_path (which certifies the path) plus dumps of the payload.

# random_dense queries per pass for each size.  The n = 16 queries are
# the middle half of the unit times, so unit_p50_ms falls inside one
# group; the n = 64 queries still take most of the time.
PATH_RANDOM_SIZES = {8: 12, 16: 50, 32: 12, 64: 8}
PATH_FAMILY_COUNT = 8  # Grcar, Jordan and weighted-shift queries each

# The largest queries start on a circle of FAR_START_RADIUS times the
# spectral radius.  From Gaussian starts their cost varied with a
# coefficient of variation of 0.4, as the certificate refined one to
# three times, and made units_per_s depend on the seed; from the circle
# it varied by 0.02.  The smaller sizes keep Gaussian starts, so
# refinement is still exercised.
FAR_START_MIN_N = 64
FAR_START_RADIUS = 1.2

# Known failing queries listed in ROADMAP.md: two saddle stagnations
# and one leaked NearSingularError.  They sit in every pass, with
# eps = c / f(z).
KNOWN_FAILURES = (
    ("known/shift[2,1]", lambda: _shift((2, 1)), 0.05j, 1.2),
    ("known/shift[3,1,1,1,1,1]", lambda: _shift((3, 1, 1, 1, 1, 1)), 0.05j, 1.2),
    ("known/jordan(16,0.5)", lambda: resgrow.jordan_block(16, 0.5), 0.536 - 0.176j, 1.3),
)


def _path_query(label: str, a: np.ndarray, z: complex, c: float = 1.3) -> Unit:
    return Unit(label, (a, complex(z), c * _sigma_min(a, z)))  # eps = c / f(z)


def _resolvent_point(rng, a: np.ndarray, center: complex, scale_re: float, scale_im: float):
    """A random point off the spectrum (sigma_min well above rounding)."""
    while True:
        z = center + scale_re * rng.standard_normal() + 1j * scale_im * rng.standard_normal()
        if _sigma_min(a, z) > 1e-8:
            return complex(z)


def _path_pass(rng: np.random.Generator) -> list[Unit]:
    units = []
    for n, count in PATH_RANDOM_SIZES.items():
        for _ in range(count):
            a = resgrow.random_dense(n, _seed(rng))
            if n >= FAR_START_MIN_N:
                radius = FAR_START_RADIUS * float(np.abs(np.linalg.eigvals(a)).max())
                z = radius * np.exp(2j * np.pi * rng.uniform())
            else:
                s = 0.7 * math.sqrt(n)
                z = _resolvent_point(rng, a, 0, s, s)
            units.append(_path_query(f"random_dense/n={n}", a, z))
    for _ in range(PATH_FAMILY_COUNT):
        n = int(rng.choice([8, 12, 16, 24]))
        a = grcar(n)
        units.append(_path_query(f"grcar/n={n}", a, _resolvent_point(rng, a, 0.9, 0.5, 1.2)))
    for _ in range(PATH_FAMILY_COUNT):
        n = int(rng.integers(3, 9))
        lam = complex(*rng.uniform(-1.0, 1.0, 2))
        z = lam + rng.uniform(0.3, 0.9) * np.exp(2j * np.pi * rng.uniform())
        units.append(_path_query(f"jordan/n={n}", resgrow.jordan_block(n, lam), z))
    for _ in range(PATH_FAMILY_COUNT):
        n = int(rng.integers(2, 7))
        a = _shift(rng.uniform(1.0, 3.0, n))
        units.append(_path_query(f"shift/n={n}", a, _resolvent_point(rng, a, 0, 0.3, 0.3)))
    for label, matrix, z, c in KNOWN_FAILURES:
        units.append(_path_query(label, matrix(), z, c))
    return _interleave(units)


def run_path(unit: Unit):
    a, z, eps = unit.args
    path, cert = resgrow.find_path(a, eps, z)
    return path, cert, serialize.dumps(path.to_dict(cert))


def check_path(unit: Unit, out) -> list[str]:
    a = unit.args[0]
    path, cert, _ = out
    problems = []
    if not cert.valid:
        problems.append("certificate-invalid")
    # residual test: sigma_min(A - lam I) <= tol_eig * max(1, ||A||)
    tol = resgrow.DEFAULT_CONFIG.tol_eig * max(1.0, float(np.linalg.norm(a, 2)))
    if not _sigma_min(a, path.eigenvalue) <= tol:
        problems.append("endpoint-residual")
    if path.vertices[0] != unit.args[1] or path.vertices[-1] != path.eigenvalue:
        problems.append("path-ends")
    return problems


def path_suite(seed: int, passes: int = 2) -> Workload:
    rng = np.random.default_rng([seed, 1])
    warm = np.random.default_rng([seed, 0])
    warmup = [_path_query("warmup", a, _resolvent_point(warm, a, 0.5, 1.0, 1.0))
              for a in (resgrow.random_dense(8, 0), grcar(8), _shift((2, 1, 1)))]
    return Workload("path-suite", [_path_pass(rng) for _ in range(passes)],
                    run_path, check_path, warmup)


# --- grid-map -----------------------------------------------------------
#
# Unit: the `resgrow grid` sequence grid_sigma_min -> grid_metadata ->
# PseudoGrid.to_csv -> dumps of the metadata.

# name, matrix, bounds, labeling epsilon, grid side.  Grids of 300^2 to
# 400^2 cells stream hundreds of MB per unit, and their times swung with
# the load of other tenants on a shared machine (see NOTES.md).  Each
# side makes the four specimens take about the same time, so the median
# of a run falls inside one group instead of jumping between two.
def _grid_specimens():
    return (
        ("zigzag4", resgrow.zigzag_diagonal(4), (-0.5, 5.5, -2.5, 2.5), 1.08, 160),
        ("zigzag10", resgrow.zigzag_diagonal(10), (-0.5, 11.5, -2.5, 2.5), 1.08, 140),
        ("shift[2,1,1,1]", _shift((2, 1, 1, 1)), (-2.0, 2.0, -2.0, 2.0), 0.3, 150),
        ("jordan(8,0)", resgrow.jordan_block(8, 0.0), (-1.5, 1.5, -1.5, 1.5), 1e-2, 125),
    )


GRID_JITTER = 0.05


def _grid_pass(rng: np.random.Generator, specimens) -> list[Unit]:
    units = []
    for name, a, bounds, eps, side in specimens:
        # the cell count stays at side^2; the aspect ratio and the box move
        nx = int(rng.integers(side - side // 10, side + side // 10 + 1))
        ny = round(side * side / nx)
        box = tuple(b + GRID_JITTER * rng.uniform(-1.0, 1.0) for b in bounds)
        units.append(Unit(name, (a, box, nx, ny, eps)))
    return units


def run_grid(unit: Unit):
    a, box, nx, ny, eps = unit.args
    grid = resgrow.grid_sigma_min(a, *box, nx, ny)
    meta = resgrow.grid_metadata(grid, eps)
    return meta, grid.to_csv(), serialize.dumps(meta)


def check_grid(unit: Unit, out) -> list[str]:
    a, box, nx, ny, eps = unit.args
    meta, csv, _ = out
    problems = []
    if not 1 <= meta["components"] <= a.shape[0]:
        problems.append("components-bound")
    if unit.label.startswith("zigzag") and meta["complement_components"] != a.shape[0] - 1:
        problems.append("zigzag-complement")
    if csv.count("\n") != nx * ny + 1:
        problems.append("csv-lines")
    return problems


def grid_map(seed: int, passes: int = 7) -> Workload:
    rng = np.random.default_rng([seed, 2])
    specimens = _grid_specimens()
    warmup = [Unit(name, (a, bounds, 40, 40, eps)) for name, a, bounds, eps, _ in specimens]
    return Workload("grid-map", [_grid_pass(rng, specimens) for _ in range(passes)],
                    run_grid, check_grid, warmup)


# --- point-probe --------------------------------------------------------
#
# Unit: the growth check at one point, analyze_point ->
# sample_segment_auto -> verify_growth_bound -> taylor_remainder_check
# -> local_min_probe.

PROBE_RANDOM_SIZES = {64: 12, 96: 8}
PROBE_SPECIMENS = (
    ("shift[2,1]@0", (2, 1), "quadratic"),
    ("shift[2,1,1,1]@0", (2, 1, 1, 1), "local_min"),
)


def _probe_pass(rng: np.random.Generator, specimens) -> list[Unit]:
    units = list(specimens)
    for n, count in PROBE_RANDOM_SIZES.items():
        for _ in range(count):
            a = resgrow.random_dense(n, _seed(rng))
            s = 0.5 * math.sqrt(n)
            units.append(Unit(f"random_dense/n={n}", (a, _resolvent_point(rng, a, 0, s, s), None)))
    return _interleave(units)


def run_probe(unit: Unit):
    a, z, _ = unit.args
    point = resgrow.analyze_point(a, z)
    # a local minimum has no ascent direction; probe along theta = 0
    theta = 0.0 if point.theta0 is None else point.theta0
    report = resgrow.sample_segment_auto(a, point, direction=theta)
    bound = resgrow.verify_growth_bound(report, point.case)
    steps = resgrow.default_taylor_steps(start=min(1e-2, 0.2 * point.spectral_distance))
    taylor = resgrow.taylor_remainder_check(a, z, point.psi, theta, steps)
    probe = resgrow.local_min_probe(a, z, 0.25 * point.spectral_distance)
    return point, report, bound, taylor, probe


def check_probe(unit: Unit, out) -> list[str]:
    a, z, expected_case = unit.args
    point, report, bound, taylor, probe = out
    problems = []
    reference = float(resgrow.sigma_min_batch(a, [z])[0])
    if not abs(point.sigma_min - reference) <= 1e-10 * reference:
        problems.append("sigma_min-mismatch")
    if not bound.passed:
        problems.append("growth-bound")
    if expected_case is not None and point.case.value != expected_case:
        problems.append("case")
    if expected_case == "local_min" and not probe.is_local_min:
        problems.append("local-min-probe")
    if not all(math.isfinite(r) for r in taylor.residuals):
        problems.append("taylor-residuals")
    return problems


def point_probe(seed: int, passes: int = 3) -> Workload:
    rng = np.random.default_rng([seed, 3])
    specimens = [Unit(label, (_shift(w), 0j, case)) for label, w, case in PROBE_SPECIMENS]
    warmup = specimens + [Unit("warmup", (resgrow.random_dense(16, 0), 0.5 + 0.5j, None))]
    return Workload("point-probe", [_probe_pass(rng, specimens) for _ in range(passes)],
                    run_probe, check_probe, warmup)


WORKLOADS = {
    "path-suite": path_suite,
    "grid-map": grid_map,
    "point-probe": point_probe,
}
