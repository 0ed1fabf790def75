"""Growth verification along segments.

Given an analyzed point, these routines sample the resolvent norm on a
short straight segment in the predicted ascent direction, fit the
observed growth exponent, check the predicted lower bound with a fitted
constant, probe candidate local minima on a polar grid, and validate
the second-order expansion of ||R(zeta) psi||^2 by measuring the decay
order of its remainder.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .analysis import GrowthCase, ResolventPoint, _growth_quantities
from .config import DEFAULT_CONFIG, RunConfig, _integer, _point, _real
from .errors import DomainError
from .linalg import (
    ShiftedSolver,
    as_operator,
    as_vector,
    circle_directions,
    norms_from_sigma,
    sigma_min_batch,
    spectral_distance,
)
from .serialize import Result, csv_text, payload

# samples whose excess over the base norm is below this (relative to the
# base norm) are treated as numerical noise and excluded from fits
EXCESS_FLOOR_REL = 1e-13

# absolute slack, relative to the base norm, granted when checking the
# growth bound sample-by-sample (covers rounding at the t=0 sample)
_BOUND_SLACK_REL = 1e-12

# acceptance window for the radial profile exponent of a local minimum
PROFILE_EXPONENT_RANGE = (1.7, 2.3)

# times sample_segment_auto halves its segment before giving up
_AUTO_HALVINGS = 10


def _fit_power(
    dists, excesses, floor: float, curvature: bool = True
) -> tuple[float | None, float | None]:
    """Least-squares power-law fit excess ~ C * d**delta on log-log data.

    Samples whose excess is at or below floor are numerical noise and
    are dropped first.  With curvature and four or more samples left a
    nuisance term linear in d is included: the resolvent norm is not an
    exact power law away from d -> 0 (on a normal matrix the excess is
    d/(dist*(dist-d)), already ~12% steeper than linear in log-log over
    a quarter-distance segment), and the extra term absorbs that
    curvature so delta estimates the d -> 0 growth order.  Returns
    (delta, C), or (None, None) when fewer than two samples remain.
    """
    usable = excesses > floor
    dists, k = dists[usable], int(np.count_nonzero(usable))
    if k < 2:
        return None, None
    cols = [np.ones(k), np.log(dists)]
    if curvature and k >= 4:
        cols.append(dists)
    coef, *_ = np.linalg.lstsq(np.stack(cols, axis=1), np.log(excesses[usable]), rcond=None)
    return float(coef[1]), float(np.exp(coef[0]))


@dataclass(frozen=True)
class SegmentReport(Result):
    """Sampled resolvent norms on the segment [z, z_prime].

    samples are (t, zeta, norm) triples with t equispaced on [0, 1].
    fitted_delta / fitted_C are None when no usable fit exists.
    min_excess is the smallest norm - base_norm over the t > 0 samples.
    """

    z: complex
    z_prime: complex
    a0: float
    samples: tuple[tuple[float, complex, float], ...]
    base_norm: float
    fitted_delta: float | None
    fitted_C: float | None
    min_excess: float
    all_in_resolvent_set: bool

    def to_dict(self) -> dict:
        # each sample a {t, zeta, norm} dict; the fit keys last, only when fitted
        data = payload(self)
        fit = {key: data.pop(key) for key in ("fitted_delta", "fitted_C")}
        data["samples"] = [dict(zip(("t", "zeta", "norm"), s)) for s in data["samples"]]
        if self.fitted_delta is not None:
            data.update(fit)
        return data

    def to_csv(self) -> str:
        rows = [(t, zeta.real, zeta.imag, norm) for t, zeta, norm in self.samples]
        return csv_text(("t", "re", "im", "norm"), np.reshape(rows, (-1, 4)).T)


def sample_segment(
    a,
    point: ResolventPoint,
    a0: float,
    m: int = 16,
    direction: float | None = None,
    cfg: RunConfig = DEFAULT_CONFIG,
) -> SegmentReport:
    """Sample m+1 equispaced points on the growth segment of length a0.

    a is a matrix or an Operator.  The direction angle defaults to the
    analyzed theta0; a local minimum point has none, so supply one.

    Raises:
        ValueError: m not an integer >= 8, a0 not positive, a direction
            that is not finite, or a missing direction.
        DomainError: a0 >= spectral distance (the segment would leave
            the resolvent set).
    """
    a = as_operator(a)
    m, a0 = _integer("m", m, 8), _real("a0", a0, positive=True)
    theta = point.theta0 if direction is None else _real("direction", direction)
    if theta is None:
        raise ValueError("a local minimum point has no theta0; supply a direction")
    if a0 >= point.spectral_distance:
        raise DomainError(
            f"a0={a0} reaches the spectrum (spectral distance {point.spectral_distance})"
        )

    step = a0 * np.exp(-1j * theta)
    ts = np.arange(m + 1) / m
    zetas = point.z + ts * step
    sigmas = sigma_min_batch(a, zetas)
    all_in = bool(np.all(sigmas > cfg.tol_singular))
    norms = norms_from_sigma(sigmas)

    base = point.norm
    excesses = norms[1:] - base
    dists = np.abs(zetas[1:] - point.z)
    delta, c = _fit_power(dists, excesses, EXCESS_FLOOR_REL * base)

    return SegmentReport(
        z=point.z,
        z_prime=complex(zetas[-1]),
        a0=a0,
        samples=tuple(
            (float(t), complex(zeta), float(norm))
            for t, zeta, norm in zip(ts, zetas, norms)
        ),
        base_norm=base,
        fitted_delta=delta,
        fitted_C=c,
        min_excess=float(np.min(excesses)),
        all_in_resolvent_set=all_in,
    )


def sample_segment_auto(
    a,
    point: ResolventPoint,
    m: int = 16,
    direction: float | None = None,
    cfg: RunConfig = DEFAULT_CONFIG,
) -> SegmentReport:
    """Sample with the default segment length, shrinking it on failure.

    Starts at a quarter of the spectral distance and halves, at most
    _AUTO_HALVINGS times, until every t > 0 sample exceeds the base norm;
    else the last report is returned with its fit marked undefined.
    """
    a0 = 0.25 * point.spectral_distance
    report = None
    for _ in range(_AUTO_HALVINGS + 1):
        report = sample_segment(a, point, a0, m, direction, cfg)
        if report.min_excess > 0.0:
            return report
        a0 *= 0.5
    return dataclasses.replace(report, fitted_delta=None, fitted_C=None)


@dataclass(frozen=True)
class BoundCheck(Result):
    """Outcome of checking norm(zeta) >= base + C |zeta - z|^delta."""

    passed: bool
    delta: int
    constant: float | None
    witness: dict | None


def verify_growth_bound(report: SegmentReport, expected_case: GrowthCase) -> BoundCheck:
    """Check the growth lower bound on every sample of a segment report.

    The exponent is 1 for LINEAR and 2 for QUADRATIC or LOCAL_MIN, and
    the constant is the fitted one shrunk by a safety factor of 0.5.
    On failure the first offending sample is returned as the witness.
    """
    delta = 1 if expected_case is GrowthCase.LINEAR else 2
    if report.fitted_C is None or not report.fitted_C > 0.0:
        return BoundCheck(False, delta, None, None)
    c = 0.5 * report.fitted_C
    slack = _BOUND_SLACK_REL * report.base_norm
    for t, zeta, norm in report.samples:
        required = report.base_norm + c * abs(zeta - report.z) ** delta
        if norm < required - slack:
            witness = {"t": t, "zeta": zeta, "norm": norm, "required": required}
            return BoundCheck(False, delta, c, witness)
    return BoundCheck(True, delta, c, None)


@dataclass(frozen=True)
class LocalMinProbe(Result):
    """Polar probe of a candidate local minimum.

    profile[i] is the minimum over all probed angles of
    norm(z + radii[i] * e^{i theta}) - base_norm.
    """

    is_local_min: bool
    base_norm: float
    radii: tuple[float, ...]
    profile: tuple[float, ...]
    fitted_exponent: float | None
    fitted_constant: float | None
    min_excess: float


def local_min_probe(
    a,
    z: complex,
    r0: float,
    radial: int = 6,
    angular: int = 16,
    cfg: RunConfig = DEFAULT_CONFIG,
) -> LocalMinProbe:
    """Probe radial * angular points on circles around z.

    The verdict is True when no probed point falls below the base norm
    and the angular-minimum radial profile fits a power law with
    exponent in PROFILE_EXPONENT_RANGE and positive constant, i.e. the
    point behaves like a genuine second-order minimum in the flattest
    direction.  a is a matrix or an Operator.

    Raises:
        ValueError: z not finite, r0 not positive, radial not an integer
            >= 4 or angular not an integer >= 8.
        DomainError: the probe disk reaches the spectrum.
        NearSingularError: sigma_min(A - zI) <= cfg.tol_singular.
    """
    op = as_operator(a)
    z, r0 = _point("z", z), _real("r0", r0, positive=True)
    radial, angular = _integer("radial", radial, 4), _integer("angular", angular, 8)
    dist = spectral_distance(op.eigenvalues, z)
    if r0 >= dist:
        raise DomainError(f"probe radius r0={r0} reaches the spectrum (distance {dist})")

    base = ShiftedSolver(op, z, cfg).norm
    radii = r0 * (np.arange(radial) + 1) / radial
    zetas = z + radii[:, None] * circle_directions(angular)[None, :]
    sigmas = sigma_min_batch(op, zetas.ravel()).reshape(radial, angular)
    excess = norms_from_sigma(sigmas) - base
    profile = excess.min(axis=1)
    min_excess = float(profile.min())

    exponent, constant = _fit_power(radii, profile, EXCESS_FLOOR_REL * base)
    lo, hi = PROFILE_EXPONENT_RANGE
    ok = min_excess >= 0.0 and exponent is not None and lo <= exponent <= hi and constant > 0.0
    return LocalMinProbe(
        is_local_min=bool(ok),
        base_norm=base,
        radii=tuple(float(r) for r in radii),
        profile=tuple(float(p) for p in profile),
        fitted_exponent=exponent,
        fitted_constant=constant,
        min_excess=min_excess,
    )


@dataclass(frozen=True)
class TaylorCheck(Result):
    """Measured remainder decay of the second-order expansion of
    ||R(zeta) psi||^2 along one direction."""

    steps: tuple[float, ...]
    residuals: tuple[float, ...]
    fitted_order: float


def default_taylor_steps(start: float = 1e-2, levels: int = 7) -> tuple[float, ...]:
    """Halving ladder start, start/2, ..., start/2^(levels-1); ValueError
    unless start is positive and levels an integer >= 1."""
    start, levels = _real("start", start, positive=True), _integer("levels", levels, 1)
    return tuple(start * 0.5**i for i in range(levels))


def taylor_remainder_check(
    a,
    z: complex,
    psi,
    theta0: float,
    steps,
    cfg: RunConfig = DEFAULT_CONFIG,
) -> TaylorCheck:
    """Compare ||R(z + h e^{-i theta0}) psi||^2 against its second-order
    model for every step h and fit the remainder decay order.

    The model is ||R psi||^2 + 2 Re[w alpha] + |w|^2 beta + 2 Re[w^2 gamma]
    with w = h e^{-i theta0}; a correct implementation leaves a cubic
    remainder, so the fitted order sits near 3 and the residual ratio
    per halving near 8.  The order is fitted over the leading residuals
    above ``EXCESS_FLOOR_REL`` ||R psi||^2, at least two, since rounding
    sets the rest.  a is a matrix or an Operator.

    One SVD at z gives alpha, beta, gamma and ||R psi||^2; the step points
    take one batched LU solve, and their sigma_min only where the Lipschitz
    guard of ``ShiftedSolver.solve_nearby`` cannot rule out a singular one.

    Raises:
        ValueError: z or theta0 not finite (a local minimum has no
            theta0), or steps not positive and strictly decreasing, or
            fewer than two of them, or psi not a finite vector of length n.
        DomainError: largest step at or beyond half the spectral distance.
        NearSingularError: sigma_min(A - uI) <= cfg.tol_singular at u = z
            or at a step point u = z + w, which the domain check can miss.
    """
    op = as_operator(a)
    z, theta0 = _point("z", z), _real("theta0", theta0)
    psi = as_vector(psi, op.matrix.shape[0], "psi")
    steps = tuple(_real("steps", h, positive=True) for h in steps)
    if len(steps) < 2:
        raise ValueError(f"steps must be a decreasing sequence of two or more, got {steps}")
    if any(h2 >= h1 for h1, h2 in zip(steps, steps[1:])):
        raise ValueError("steps must be strictly decreasing")
    dist = spectral_distance(op.eigenvalues, z)
    if steps[0] >= 0.5 * dist:
        raise DomainError(
            f"largest step {steps[0]} is not small against the spectral distance {dist}"
        )

    solver = ShiftedSolver(op, z, cfg)
    alpha, beta, gamma, base_sq = _growth_quantities(solver, psi)

    hs = np.asarray(steps)
    ws = hs * np.exp(-1j * theta0)
    u = solver.solve_nearby(ws, psi)
    direct = np.einsum("ki,ki->k", u.conj(), u).real
    model = base_sq + 2.0 * (ws * alpha).real + (hs * hs) * beta + 2.0 * ((ws * ws) * gamma).real
    residuals = np.abs(direct - model)

    # plain log-log slope over the leading residuals above the floor, at least
    # two (1e-300 guards log(0)): the steps make power-law curvature negligible
    keep = slice(max(2, int(np.cumprod(residuals > EXCESS_FLOOR_REL * base_sq).sum())))
    order, _ = _fit_power(hs[keep], np.maximum(residuals[keep], 1e-300), 0.0, curvature=False)
    return TaylorCheck(steps=steps, residuals=tuple(map(float, residuals)), fitted_order=order)
