"""Pointwise resolvent analysis.

For a square complex matrix A and a point z in the resolvent set this
module computes the resolvent norm, the maximizing (norm-determining)
vector psi, the three directional growth quantities

    alpha = <R psi, R^2 psi>,  beta = ||R^2 psi||^2,  gamma = <R psi, R^3 psi>,

classifies the local growth behavior of ||R(.)|| at z, and picks the
steepest-growth direction angle when one exists.  Inner products are
conjugate-linear in the first slot (``np.vdot`` semantics).  Powers of
the resolvent are applied by repeated shifted solves; the inverse is
never formed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, RunConfig, _point, _real, _run_config
from .linalg import ShiftedSolver, as_operator, canonical_phase, spectral_distance
from .serialize import Result


class GrowthCase(enum.Enum):
    """Local growth class of the resolvent norm at a point.

    LINEAR: first-order growth in some direction (alpha != 0).
    QUADRATIC: flat to first order but second-order growth (gamma != 0).
    LOCAL_MIN: flat to second order; no growth direction is predicted.
    """

    LINEAR = "linear"
    QUADRATIC = "quadratic"
    LOCAL_MIN = "local_min"


@dataclass(frozen=True)
class ResolventPoint(Result):
    """Full analysis of the resolvent at one point.

    ``theta0`` is the steepest-growth direction angle in (-pi, pi]
    (None for a local minimum): moving to z + t*exp(-1j*theta0) for
    small t > 0 increases the resolvent norm at the classified order.
    ``degenerate`` flags a (nearly) non-unique maximizing vector, by
    ``ShiftedSolver.degenerate``'s tie rule; the quantities are one witness of many.
    """

    z: complex
    norm: float
    sigma_min: float
    psi: np.ndarray
    alpha: complex
    beta: float
    gamma: complex
    case: GrowthCase
    theta0: float | None
    spectral_distance: float
    degenerate: bool


def resolvent_norm(a, z: complex, cfg: RunConfig = DEFAULT_CONFIG) -> float:
    """||(A - zI)^-1|| = 1 / sigma_min(A - zI).

    Raises NearSingularError when z is within tol_singular of the
    spectrum.
    """
    return as_operator(a)._shifted(z, cfg).norm


def _angle(x: complex) -> float:
    """Argument normalized to (-pi, pi] (np.angle can return -pi)."""
    t = float(np.angle(x))
    if t <= -np.pi:
        t += 2.0 * np.pi
    return t


def _growth_quantities(
    solver: ShiftedSolver, psi: np.ndarray
) -> tuple[complex, float, complex, float]:
    """(alpha, beta, gamma, ||R psi||^2) from R psi, R^2 psi, R^3 psi.

    Three successive shifted solves reuse the solver's factorization.
    """
    w1 = solver.solve(psi)
    w2 = solver.solve(w1)
    w3 = solver.solve(w2)
    alpha = complex(np.vdot(w1, w2))
    beta = float(np.vdot(w2, w2).real)
    gamma = complex(np.vdot(w1, w3))
    return alpha, beta, gamma, float(np.vdot(w1, w1).real)


def classify_and_direction(
    alpha: complex, gamma: complex, norm: float, cfg: RunConfig = DEFAULT_CONFIG
) -> tuple[GrowthCase, float | None]:
    """Three-way growth classification with the steepest direction angle.

    alpha and gamma are compared against tol_zero scaled by norm^3 and
    norm^4 respectively (their natural magnitude bounds).  ValueError unless
    alpha and gamma are finite numbers and norm is positive and finite.
    """
    alpha, gamma = _point("alpha", alpha), _point("gamma", gamma)
    norm, cfg = _real("norm", norm, positive=True), _run_config(cfg)
    if abs(alpha) > cfg.tol_zero * norm**3:
        return GrowthCase.LINEAR, _angle(alpha)
    if abs(gamma) > cfg.tol_zero * norm**4:
        return GrowthCase.QUADRATIC, 0.5 * _angle(gamma)
    return GrowthCase.LOCAL_MIN, None


def analyze_point(a, z: complex, cfg: RunConfig = DEFAULT_CONFIG) -> ResolventPoint:
    """Complete resolvent analysis at a resolvent-set point of a matrix or an
    Operator.  ValueError unless z is finite; NearSingularError if
    sigma_min(A - zI) <= cfg.tol_singular."""
    op = as_operator(a)
    solver = op._shifted(z, cfg)
    # kept although min_left_vector is phase-fixed: a second pass changes psi's low bits
    psi = canonical_phase(solver.min_left_vector())
    alpha, beta, gamma, _ = _growth_quantities(solver, psi)
    norm = solver.norm
    case, theta0 = classify_and_direction(alpha, gamma, norm, cfg)
    dist = spectral_distance(op.eigenvalues, z)
    return ResolventPoint(
        z=complex(z),
        norm=norm,
        sigma_min=solver.sigma_min,
        psi=psi,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        case=case,
        theta0=theta0,
        spectral_distance=dist,
        degenerate=solver.degenerate(),
    )
