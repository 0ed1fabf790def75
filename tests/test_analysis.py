import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resgrow as rg
from resgrow.analysis import _angle, _growth_quantities, classify_and_direction


def random_matrix(rng, n):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)


def test_resolvent_norm_normal_matrix(diag03):
    # for a normal matrix the norm is exactly 1/dist to the spectrum
    assert rg.resolvent_norm(diag03, 1.0 + 0j) == pytest.approx(1.0)
    assert rg.resolvent_norm(diag03, 1.0 + 1j) == pytest.approx(1.0 / np.sqrt(2.0))
    assert rg.resolvent_norm(diag03, 2.5 + 0j) == pytest.approx(2.0)


def test_norm_determining_vector_maximizes(diag03):
    psi = rg.ShiftedSolver(diag03, 1.0 + 0j).min_left_vector()
    assert np.allclose(psi, [1.0, 0.0])
    rng = np.random.default_rng(43)
    a = random_matrix(rng, 6)
    z = 0.3 + 0.2j
    psi = rg.ShiftedSolver(a, z).min_left_vector()
    r_psi = rg.shifted_solve(a, z, psi)
    assert np.linalg.norm(r_psi) == pytest.approx(rg.resolvent_norm(a, z), rel=1e-9)


def test_angle_normalization():
    assert _angle(-1.0 + 0j) == pytest.approx(np.pi)
    assert _angle(-1.0 - 1e-30j) == pytest.approx(np.pi)  # -pi folds to +pi
    assert _angle(1.0 + 1j) == pytest.approx(np.pi / 4)


def test_diagonal_point_quantities(diag03):
    p = rg.analyze_point(diag03, 1.0 + 0j)
    assert p.case is rg.GrowthCase.LINEAR
    assert p.alpha == pytest.approx(-1.0 + 0j, abs=1e-14)
    assert p.beta == pytest.approx(1.0, rel=1e-14)
    assert p.gamma == pytest.approx(1.0 + 0j, abs=1e-14)
    assert p.theta0 == pytest.approx(np.pi)
    assert p.spectral_distance == pytest.approx(1.0)
    assert not p.degenerate
    assert p.sigma_min == pytest.approx(1.0)


def test_shift2_point_quantities(shift2):
    p = rg.analyze_point(shift2, 0j)
    assert p.case is rg.GrowthCase.QUADRATIC
    assert p.norm == pytest.approx(2.0, rel=1e-12)
    assert abs(p.alpha) <= 1e-12 * p.norm**3
    assert p.beta == pytest.approx(4.0, rel=1e-12)
    assert p.gamma == pytest.approx(8.0 + 0j, rel=1e-12)
    assert p.theta0 == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(p.psi, np.eye(2)[1], atol=1e-12)


def test_shift4_point_is_local_min(shift4):
    p = rg.analyze_point(shift4, 0j)
    assert p.case is rg.GrowthCase.LOCAL_MIN
    assert p.theta0 is None
    assert abs(p.alpha) <= 1e-12 * p.norm**3
    assert abs(p.gamma) <= 1e-12 * p.norm**4
    assert p.beta == pytest.approx(4.0, rel=1e-12)


def test_longer_cycles_stay_local_min():
    # beta = |w0 * w1|^2 = 4 for every cycle length of four or more
    for n in (5, 6):
        a = rg.weighted_shift([2] + [1] * (n - 1))
        p = rg.analyze_point(a, 0j)
        assert p.case is rg.GrowthCase.LOCAL_MIN
        assert p.beta == pytest.approx(4.0, rel=1e-12)


def test_classify_thresholds():
    cfg = rg.DEFAULT_CONFIG
    case, theta = classify_and_direction(1e-3 + 0j, 0j, 1.0, cfg)
    assert case is rg.GrowthCase.LINEAR and theta == pytest.approx(0.0)
    case, theta = classify_and_direction(0j, -4.0 + 0j, 1.0, cfg)
    assert case is rg.GrowthCase.QUADRATIC
    assert theta == pytest.approx(np.pi / 2)
    case, theta = classify_and_direction(0j, 0j, 1.0, cfg)
    assert case is rg.GrowthCase.LOCAL_MIN and theta is None
    # thresholds scale with the norm
    case, _ = classify_and_direction(1e-3 + 0j, 0j, 1e3, cfg)
    assert case is rg.GrowthCase.LOCAL_MIN


def test_quantities_phase_invariant(shift2):
    solver = rg.ShiftedSolver(shift2, 0j)
    psi = solver.min_left_vector()
    base = _growth_quantities(solver, psi)[:3]
    rotated = _growth_quantities(solver, psi * np.exp(0.77j))[:3]
    for x, y in zip(base, rotated):
        assert abs(x - y) <= 1e-12


def test_translation_equivariance():
    rng = np.random.default_rng(47)
    a = random_matrix(rng, 5)
    z = 0.4 - 0.3j
    w = 1.7 + 0.9j
    p = rg.analyze_point(a, z)
    q = rg.analyze_point(a + w * np.eye(5), z + w)
    assert q.norm == pytest.approx(p.norm, rel=1e-10)
    assert q.alpha == pytest.approx(p.alpha, rel=1e-8)
    assert q.beta == pytest.approx(p.beta, rel=1e-8)
    assert q.gamma == pytest.approx(p.gamma, rel=1e-8)
    assert q.case is p.case
    if p.theta0 is not None:
        assert q.theta0 == pytest.approx(p.theta0, abs=1e-8)


def test_quantity_magnitude_bounds():
    # |alpha| <= norm^3, beta <= norm^4, |gamma| <= norm^4 by Cauchy-Schwarz
    rng = np.random.default_rng(53)
    for _ in range(25):
        a = random_matrix(rng, 6)
        z = complex(*rng.standard_normal(2))
        try:
            p = rg.analyze_point(a, z)
        except rg.NearSingularError:
            continue
        slack = 1.0 + 1e-9
        assert abs(p.alpha) <= slack * p.norm**3
        assert p.beta <= slack * p.norm**4
        assert abs(p.gamma) <= slack * p.norm**4
        assert p.beta > 0


def test_degenerate_flag(zigzag2):
    p = rg.analyze_point(zigzag2, 1.5 + 0j)
    assert p.degenerate
    assert rg.analyze_point(zigzag2, 1.1 + 0j).degenerate is False


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(["random_dense", "grcar", "jordan"]),
    n=st.integers(2, 12),
    seed=st.integers(0, 2**16),
    lam=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    c=st.floats(1.01, 1e4),
    phi=st.floats(0.0, 2.0 * np.pi),
)
def test_outside_numerical_range_is_linear(family, n, seed, lam, c, phi):
    """With M v = s u for sigma_min s of M = A - zI, u^H v = conj(v^H A v - z)/s, which
    vanishes only for z in the numerical range W(A).  |z| > ||A||_2 puts z outside W(A),
    so every such point is LINEAR and sigma_min falls along exp(-1j theta0)."""
    a = {"random_dense": lambda: rg.random_dense(n, seed), "grcar": lambda: rg.grcar(n),
         "jordan": lambda: rg.jordan_block(n, lam)}[family]()
    z = c * np.linalg.norm(a, 2) * np.exp(1j * phi)
    p = rg.analyze_point(a, z)
    assert p.case is rg.GrowthCase.LINEAR
    t = 1e-3 * p.sigma_min
    before, after = rg.sigma_min_batch(a, [z, z + t * np.exp(-1j * p.theta0)])
    assert after < before


def test_analysis_near_singular_raises(diag03):
    with pytest.raises(rg.NearSingularError):
        rg.analyze_point(diag03, 3.0 + 0j)


def test_to_dict_schema(diag03, shift4):
    d = rg.analyze_point(diag03, 1.0 + 0j).to_dict()
    assert list(d.keys()) == [
        "z",
        "norm",
        "sigma_min",
        "psi",
        "alpha",
        "beta",
        "gamma",
        "case",
        "theta0",
        "spectral_distance",
        "degenerate",
    ]
    assert d["z"] == [1.0, 0.0]
    assert d["case"] == "linear"
    assert isinstance(d["theta0"], float)
    assert isinstance(d["psi"], list) and d["psi"][0] == [1.0, 0.0]
    d4 = rg.analyze_point(shift4, 0j).to_dict()
    assert d4["case"] == "local_min"
    assert d4["theta0"] is None
