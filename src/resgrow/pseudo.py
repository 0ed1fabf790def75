"""Pseudospectrum grids, component labeling, and certified paths.

The epsilon-pseudospectrum is the sublevel set sigma_min(A - zI) <
epsilon.  This module evaluates sigma_min on rectangular grids, labels
connected components of the sublevel set, and constructs polygonal
paths from a query point inside the pseudospectrum to an eigenvalue
along which the resolvent norm never drops below a certified floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import GrowthCase, analyze_point
from .config import DEFAULT_CONFIG, RunConfig, _integer, _point, _real
from .errors import DomainError, NearSingularError, SearchError
from .linalg import _complex_array, as_operator, circle_directions
from .linalg import norms_from_sigma, sigma_min_batch
from .serialize import Result, csv_text, payload

# fraction of the spectral distance at which the escape fan is probed
_FAN_PROBE_FRAC = 0.25

# directions in the escape fan tried after the analyzed direction
_ESCAPE_DIRECTIONS = 16

# relative progress a step must make over the current vertex norm
_PROGRESS_REL = 1e-9

# sigma_min evaluations the path certificate may spend per segment.
# Where sigma_min stays far below the floor's sigma s_req along a long
# segment (strongly non-normal A, small epsilon), the Lipschitz bound
# needs about length / (2 s_req) of them; past this budget the floor is
# reported unproved instead.
_CERT_SAMPLES_PER_SEGMENT = 4096


def _norms_at(a, zs) -> np.ndarray:
    """Resolvent norms at a batch of points."""
    return norms_from_sigma(sigma_min_batch(a, zs))


def _cell_centers(lo: float, hi: float, count: int) -> np.ndarray:
    """Centers of count equal cells spanning [lo, hi]."""
    return lo + (np.arange(count) + 0.5) * (hi - lo) / count


@dataclass(frozen=True)
class PseudoGrid:
    """sigma_min(A - zI) sampled at the cell centers of a rectangle.

    values[i, j] belongs to re_i + 1j * im_j where re_i and im_j run
    over the nx respectively ny cell centers.  A zero value marks an
    exact spectrum hit and is legal data, not an error.
    """

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    nx: int
    ny: int
    values: np.ndarray

    @property
    def centers_re(self) -> np.ndarray:
        return _cell_centers(self.re_min, self.re_max, self.nx)

    @property
    def centers_im(self) -> np.ndarray:
        return _cell_centers(self.im_min, self.im_max, self.ny)

    def to_csv(self) -> str:
        """One (re, im, sigma_min) row per cell, re-major."""
        re, im = self.centers_re[:, None], self.centers_im[None, :]
        return csv_text(("re", "im", "sigma_min"), (re, im, self.values))


def grid_sigma_min(
    a,
    re_min: float,
    re_max: float,
    im_min: float,
    im_max: float,
    nx: int,
    ny: int,
) -> PseudoGrid:
    """Evaluate sigma_min(A - zI) on an nx x ny cell-center grid; a may be an Operator.
    ValueError unless nx, ny >= 2 are integers and re_min < re_max, im_min < im_max finite."""
    a = as_operator(a)
    nx, ny = _integer("nx", nx, 2), _integer("ny", ny, 2)
    re_min, re_max = _real("re_min", re_min), _real("re_max", re_max)
    im_min, im_max = _real("im_min", im_min), _real("im_max", im_max)
    if not (re_min < re_max and im_min < im_max):
        raise ValueError("grid bounds must satisfy re_min < re_max and im_min < im_max")
    re = _cell_centers(re_min, re_max, nx)
    im = _cell_centers(im_min, im_max, ny)
    zs = (re[:, None] + 1j * im[None, :]).ravel()
    values = sigma_min_batch(a, zs).reshape(nx, ny)
    return PseudoGrid(re_min, re_max, im_min, im_max, nx, ny, values)


@dataclass(frozen=True)
class ComponentLabeling:
    """Connected components of the sublevel set on a grid.

    labels[i, j] == 0 marks cells outside the set; inside cells carry
    labels 1..count assigned in scan order.
    """

    epsilon: float
    labels: np.ndarray
    count: int


def _label(mask: np.ndarray, connect8: bool) -> tuple[np.ndarray, int]:
    """4- or 8-connected components of a boolean grid, numbered in scan order."""
    # imported here: at module level it would triple `import resgrow` (0.15 -> 0.48 s)
    import scipy.ndimage

    return scipy.ndimage.label(mask, np.ones((3, 3)) if connect8 else None)


def components(grid: PseudoGrid, epsilon: float) -> ComponentLabeling:
    """4-connected components of the cells with sigma_min < epsilon (ValueError unless > 0)."""
    epsilon = _real("epsilon", epsilon, positive=True)
    labels, count = _label(grid.values < epsilon, connect8=False)
    return ComponentLabeling(epsilon=epsilon, labels=labels, count=count)


def connectivity_order(grid: PseudoGrid, epsilon: float) -> int:
    """Number of components of the complement within the grid box.

    This counts the connectivity order of the sublevel set: one
    unbounded outside region plus one per enclosed gap.  The complement
    is labeled with 8-connectivity, the standard dual of 4-connected
    foreground labeling; without the duality, hair-thin complement
    wedges at disk-intersection cusps pinch off into spurious
    single-cell components.  ValueError unless epsilon > 0.
    """
    epsilon = _real("epsilon", epsilon, positive=True)
    return _label(~(grid.values < epsilon), connect8=True)[1]


def grid_metadata(grid: PseudoGrid, epsilon: float) -> dict:
    """Labeling summary for a grid: the JSON sidecar of the CSV export."""
    labeling = components(grid, epsilon)
    return {
        "bounds": [grid.re_min, grid.re_max, grid.im_min, grid.im_max],
        "nx": grid.nx,
        "ny": grid.ny,
        "epsilon": float(epsilon),
        "components": labeling.count,
        "complement_components": connectivity_order(grid, epsilon),
    }


@dataclass(frozen=True)
class PolyPath(Result):
    """Polygonal path x_1, ..., x_m, lambda inside a pseudospectrum.

    The first vertex is the query point, the last an eigenvalue (also
    kept in ``eigenvalue``).  ``delta`` is the norm slack
    (f(x_1) - 1/epsilon)/2 fixed at construction.  Points are stored as
    complex.  ValueError: no vertices, a point not finite, or epsilon not positive.
    """

    vertices: tuple[complex, ...]
    eigenvalue: complex
    epsilon: float
    delta: float

    def __post_init__(self):
        vertices = _complex_array("vertices", self.vertices, 1)
        object.__setattr__(self, "vertices", tuple(vertices.tolist()))
        object.__setattr__(self, "eigenvalue", _point("eigenvalue", self.eigenvalue))
        object.__setattr__(self, "epsilon", _real("epsilon", self.epsilon, positive=True))

    def to_dict(self, certificate: "PathCertificate | None" = None) -> dict:
        data = payload(self)
        if certificate is not None:
            data["certificate"] = certificate.to_dict()
        return data


@dataclass(frozen=True)
class PathCertificate(Result):
    """Proof that a path stays inside the epsilon-pseudospectrum.

    ``samples`` counts the sigma_min evaluations the certificate made
    and ``min_f_on_path`` is the smallest resolvent norm among them.
    Invalid certificates are data, not exceptions: ``failures`` lists
    which invariant broke.
    """

    samples: int
    min_f_on_path: float
    vertex_norms: tuple[float, ...]
    endpoint_distance: float
    valid: bool
    failures: tuple[str, ...]


def certify_path(a, path: PolyPath, cfg: RunConfig = DEFAULT_CONFIG) -> PathCertificate:
    """Prove the norm floor on every segment and validate the invariants.

    Checks, in order: the resolvent norm along every segment stays
    strictly above 1/epsilon with margin at least half of
    f(x_1) - delta - 1/epsilon (met when f(x_1) is infinite); the vertex
    norms over x_1..x_m strictly increase; the final hop is shorter than
    epsilon/2; the last vertex is an eigenvalue under the residual test
    sigma_min(A - lambda I) <= tol_eig * max(1, ||A||_2).

    The floor is proved over the continuous segments, not only at
    samples.  sigma_min(A - zI) is 1-Lipschitz in z, so on an interval
    [p, q] it is at most (sigma(p) + sigma(q) + |q - p|)/2.  Intervals
    whose bound, plus a rounding slack of n u (||A||_2 + max |z|), does
    not reach the sigma of the required floor are proved; the others are
    bisected, all midpoints of one level in one batch.  Refinement stops
    with a "min_f_margin" failure at a sampled point below the floor or
    at an unproved interval no longer than the slack, and with a
    "min_f_unproved" failure when the next level would bring the total
    past _CERT_SAMPLES_PER_SEGMENT evaluations per segment.  a is a
    matrix or an Operator, whose ``norm`` gives ||A||_2; the PolyPath
    has checked its points and epsilon.
    """
    op = as_operator(a)
    verts = np.array(path.vertices)
    inv_eps = 1.0 / path.epsilon

    sigma = sigma_min_batch(op, verts)
    norms = norms_from_sigma(sigma)
    vertex_norms = tuple(float(v) for v in norms[:-1])
    endpoint_distance = float(abs(verts[-2] - verts[-1])) if vertex_norms else 0.0
    f_start = vertex_norms[0] if vertex_norms else float(norms[0])
    # f(x_1) = inf at an exact eigenvalue, where find_path's delta is inf too: margin met
    required_margin = 0.5 * (f_start - path.delta - inv_eps) if f_start < np.inf else 0.0
    s_req = 1.0 / (inv_eps + max(required_margin, 0.0))
    slack = op.matrix.shape[0] * np.finfo(float).eps * (op.norm + float(np.max(np.abs(verts))))

    samples = verts.shape[0]
    budget = samples + _CERT_SAMPLES_PER_SEGMENT * (samples - 1)
    max_sigma = sigma.max()
    refuted = exhausted = False
    p, q, sp, sq = verts[:-1], verts[1:], sigma[:-1], sigma[1:]
    while True:
        length = np.abs(q - p)
        open_ = 0.5 * (sp + sq + length) + slack > s_req
        if max_sigma > s_req or np.any(open_ & (length <= slack)):
            refuted = True
            break
        count = int(np.count_nonzero(open_))
        if count == 0:
            break
        if samples + count > budget:
            exhausted = True
            break
        p, q, sp, sq = p[open_], q[open_], sp[open_], sq[open_]
        mid = 0.5 * (p + q)
        sm = sigma_min_batch(op, mid)
        samples += mid.shape[0]
        max_sigma = max(max_sigma, sm.max())
        p, q = np.concatenate((p, mid)), np.concatenate((mid, q))
        sp, sq = np.concatenate((sp, sm)), np.concatenate((sm, sq))
    min_f = float(norms_from_sigma(max_sigma))

    failures = []
    if refuted or not (min_f > inv_eps and min_f - inv_eps >= required_margin):
        failures.append("min_f_margin")
    elif exhausted:
        failures.append("min_f_unproved")
    if any(b <= a_ for a_, b in zip(vertex_norms, vertex_norms[1:])):
        failures.append("vertex_norms_not_increasing")
    if not endpoint_distance < 0.5 * path.epsilon:
        failures.append("endpoint_too_far")
    if sigma[-1] > cfg.tol_eig * max(1.0, op.norm):
        failures.append("endpoint_not_eigenvalue")

    return PathCertificate(
        samples=samples,
        min_f_on_path=min_f,
        vertex_norms=vertex_norms,
        endpoint_distance=endpoint_distance,
        valid=not failures,
        failures=tuple(failures),
    )


def _line_search(
    a, x: complex, direction: complex, fx: float, cap: float, floor: float, cfg: RunConfig
) -> tuple[float, float] | None:
    """Largest admissible step along one direction, or None.

    A step t qualifies when the endpoint makes relative progress over
    fx and the norm stays at or above the global floor at the interior
    ones of s_seg equispaced samples (fx and the endpoint exceed it).
    The steps tried, each once and largest first, are cap, cap/2,
    cap/4, ... down to cap/4 halved cfg.max_halvings times.
    """
    eta = _PROGRESS_REL * fx
    ts = np.linspace(0.0, 1.0, cfg.s_seg)[1:-1]
    t = cap
    for _ in range(cfg.max_halvings + 3):
        f_end = float(_norms_at(a, [x + t * direction])[0])
        if f_end > fx + eta and bool(np.all(_norms_at(a, x + (ts * t) * direction) >= floor)):
            return t, f_end
        t *= 0.5
    return None


def _directions(a, x: complex, theta0: float | None, dist: float):
    """Step directions from a vertex, in the order the search tries them.

    The analyzed ascent direction comes first when there is one, then
    the escape fan, best probed norm first.  The fan is probed only
    when the search reaches it.
    """
    if theta0 is not None:
        yield complex(np.exp(-1j * theta0))
    fan = circle_directions(_ESCAPE_DIRECTIONS)
    probe = _norms_at(a, x + (_FAN_PROBE_FRAC * dist) * fan)
    for k in np.argsort(-probe):
        yield complex(fan[k])


def find_path(
    a, epsilon: float, z: complex, cfg: RunConfig = DEFAULT_CONFIG
) -> tuple[PolyPath, PathCertificate]:
    """Ascend the resolvent norm from z to an eigenvalue.

    From each vertex the analyzed growth direction is followed with a
    geometric line search constrained to keep the norm above
    f(z) - delta.  When that direction admits no step, or the vertex is
    a local minimum and has none, a fan of escape directions is tried,
    best first.  Once the spectrum is closer than epsilon/2 the nearest
    eigenvalue is appended and the finished path is certified.  a is a
    matrix or an Operator; one Operator serves search and certificate.

    Raises:
        ValueError: epsilon not positive, or z not finite.
        DomainError: f(z) <= 1/epsilon (query outside the set).
        SearchError: no admissible step exists (reason "step-failure"),
            a vertex farther than epsilon/2 from every computed
            eigenvalue has sigma_min <= cfg.tol_singular, so the
            growth direction there is undefined (reason
            "singular-vertex"), or cfg.max_steps vertices were placed
            (reason "iteration-limit"); the partial path rides along.
    """
    op = as_operator(a)
    epsilon, z = _real("epsilon", epsilon, positive=True), _point("z", z)
    eigs = op.eigenvalues
    inv_eps = 1.0 / epsilon
    fz = float(_norms_at(op, [z])[0])
    if not fz > inv_eps:
        raise DomainError(
            f"query z={z} lies outside the epsilon-pseudospectrum "
            f"(norm {fz:.6g} <= 1/epsilon {inv_eps:.6g})"
        )
    delta = 0.5 * (fz - inv_eps)
    floor = fz - delta

    vertices = [z]
    x = z
    fx = fz
    for _ in range(cfg.max_steps):
        gaps = np.abs(eigs - x)
        nearest = int(np.argmin(gaps))
        dist = float(gaps[nearest])
        if dist < 0.5 * epsilon:
            # nearest eigenvalue; ties resolve to the first in the
            # deterministic (re, im) eigenvalue order
            lam = complex(eigs[nearest])
            vertices.append(lam)
            path = PolyPath(tuple(vertices), lam, epsilon, delta)
            return path, certify_path(op, path, cfg)

        try:
            point = analyze_point(op, x, cfg)
        except NearSingularError as exc:
            raise SearchError(
                f"vertex {x} is numerically singular (sigma_min={exc.sigma_min:.3e}) "
                f"but {dist:.3e} from the computed spectrum",
                tuple(vertices),
                reason="singular-vertex",
            ) from exc
        for direction in _directions(op, x, point.theta0, dist):
            found = _line_search(op, x, direction, fx, dist, floor, cfg)
            if found is not None:
                break
        else:
            raise SearchError(
                f"no admissible step from {x} in any direction after {cfg.max_halvings} halvings",
                tuple(vertices),
                reason="step-failure",
                suspected_local_min=point.case is GrowthCase.LOCAL_MIN,
            )
        t, fx = found
        x = x + t * direction
        vertices.append(x)

    raise SearchError(
        f"no eigenvalue reached within {cfg.max_steps} steps",
        tuple(vertices),
        reason="iteration-limit",
    )
