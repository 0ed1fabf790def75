from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resgrow as rg
from resgrow import growth, linalg
from resgrow.analysis import _growth_quantities
from resgrow.growth import EXCESS_FLOOR_REL, _fit_power
from resgrow.serialize import Result, payload


@pytest.fixture(scope="module")
def diag_point(diag03):
    return rg.analyze_point(diag03, 1.0 + 0j)


def test_fit_power_recovers_exponent():
    d = np.linspace(0.01, 0.2, 12)
    for delta, c in [(1.0, 0.5), (2.0, 3.0)]:
        fit = _fit_power(d, c * d**delta, 0.0)
        assert fit[0] == pytest.approx(delta, abs=1e-8)
        assert fit[1] == pytest.approx(c, rel=1e-6)
    assert _fit_power(d[:1], d[:1], 0.0) == (None, None)


def test_fit_power_drops_samples_at_the_floor():
    """A sample exactly at the floor is noise: it is dropped, so two samples
    above the floor give a fit and one leaves (None, None)."""
    d = np.array([0.1, 0.2, 0.4])
    delta, c = _fit_power(d, np.array([1.0, 2.0, 4.0]), 1.0)
    assert delta == pytest.approx(1.0, abs=1e-12) and c == pytest.approx(10.0, rel=1e-12)
    assert _fit_power(d, np.array([1.0, 1.0, 4.0]), 1.0) == (None, None)
    assert _fit_power(d[:2], np.array([0.5, 3.0]), 1.0) == (None, None)


def test_segment_closed_form_norms(diag03, diag_point):
    report = rg.sample_segment(diag03, diag_point, 0.25, 8)
    assert len(report.samples) == 9
    assert report.z_prime == pytest.approx(0.75 + 0j)
    for t, zeta, norm in report.samples:
        assert norm == pytest.approx(1.0 / (1.0 - 0.25 * t), rel=1e-12)
    assert report.samples[0][2] == pytest.approx(report.base_norm, abs=1e-12)
    assert report.min_excess > 0
    assert report.all_in_resolvent_set
    norms = [s[2] for s in report.samples]
    assert np.all(np.diff(norms) > 0)


def test_segment_chain_bound_and_delta(diag03, diag_point):
    report = rg.sample_segment(diag03, diag_point, 0.25, 8)
    dist = diag_point.spectral_distance
    for _, zeta, norm in report.samples:
        lower = report.base_norm + abs(zeta - report.z) / dist**2
        assert norm >= lower - 1e-9
    assert 0.95 <= report.fitted_delta <= 1.05


def test_segment_quadratic_exponent(shift2):
    point = rg.analyze_point(shift2, 0j)
    report = rg.sample_segment(shift2, point, 0.05, 16)
    assert report.min_excess > 0
    assert 1.8 <= report.fitted_delta <= 2.2


def test_segment_validation(diag03, shift4, diag_point):
    with pytest.raises(ValueError):
        rg.sample_segment(diag03, diag_point, 0.25, 7)
    with pytest.raises(ValueError):
        rg.sample_segment(diag03, diag_point, 0.0, 8)
    with pytest.raises(rg.DomainError):
        rg.sample_segment(diag03, diag_point, 2.0 * diag_point.spectral_distance, 8)
    flat = rg.analyze_point(shift4, 0j)
    with pytest.raises(ValueError, match="direction"):
        rg.sample_segment(shift4, flat, 0.05, 8)


def test_segment_descent_direction_has_no_fit(diag03, diag_point):
    # moving toward +2 the norm strictly decreases, so no sample is usable
    report = rg.sample_segment(diag03, diag_point, 0.25, 8, direction=0.0)
    assert report.min_excess < 0
    assert report.fitted_delta is None
    assert report.fitted_C is None
    assert report.all_in_resolvent_set


def test_segment_auto(diag03, diag_point):
    report = rg.sample_segment_auto(diag03, diag_point)
    assert report.a0 == pytest.approx(0.25 * diag_point.spectral_distance)
    assert report.min_excess > 0
    # descent direction: halvings run out and the fit is marked undefined
    bad = rg.sample_segment_auto(diag03, diag_point, direction=0.0)
    assert bad.fitted_delta is None
    assert bad.a0 == pytest.approx(0.25 * 0.5**10)
    assert bad.min_excess < 0


def test_bound_check_linear(diag03, diag_point):
    report = rg.sample_segment(diag03, diag_point, 0.25, 8)
    check = rg.verify_growth_bound(report, rg.GrowthCase.LINEAR)
    assert check.passed
    assert check.delta == 1
    # normal-matrix constant: fitted C close to 1/dist^2, halved
    assert check.constant >= 0.25
    assert check.witness is None


def test_bound_check_takes_a_case_or_its_value(diag03, diag_point):
    """verify_growth_bound takes a GrowthCase or its value; anything else
    is a ValueError naming expected_case, not a silent delta = 2 check."""
    report = rg.sample_segment(diag03, diag_point, 0.25, 8)
    assert rg.verify_growth_bound(report, "linear") == rg.verify_growth_bound(
        report, rg.GrowthCase.LINEAR
    )
    assert rg.verify_growth_bound(report, "local_min").delta == 2
    for bad in ("cubic", None, 1):
        with pytest.raises(ValueError, match="expected_case"):
            rg.verify_growth_bound(report, bad)


def test_bound_check_quadratic(shift2):
    point = rg.analyze_point(shift2, 0j)
    report = rg.sample_segment(shift2, point, 0.05, 16)
    check = rg.verify_growth_bound(report, rg.GrowthCase.QUADRATIC)
    assert check.passed
    assert check.delta == 2


def test_bound_check_linear_fails_on_flat_point(shift4):
    # at a second-order minimum the excess is quadratic, so a linear
    # bound with the fitted constant must fail at small steps
    point = rg.analyze_point(shift4, 0j)
    report = rg.sample_segment(shift4, point, 0.05, 8, direction=0.0)
    check = rg.verify_growth_bound(report, rg.GrowthCase.LINEAR)
    assert not check.passed
    assert check.witness is not None
    assert check.witness["t"] == pytest.approx(0.125)
    # the witness holds the sample itself; the payload writes zeta as [re, im]
    assert check.witness["zeta"] == report.samples[1][1]
    assert check.witness["norm"] < check.witness["required"]


def test_bound_check_without_fit(diag03, diag_point):
    report = rg.sample_segment(diag03, diag_point, 0.25, 8, direction=0.0)
    check = rg.verify_growth_bound(report, rg.GrowthCase.LINEAR)
    assert not check.passed
    assert check.constant is None
    assert check.witness is None


def test_growth_results_to_dict_key_order(diag03, diag_point, shift4):
    """A payload lists the fields in declaration order; SegmentReport puts
    its two fit keys last and drops them when no fit exists."""
    report = rg.sample_segment(diag03, diag_point, 0.25, 8)
    fields = ["z", "z_prime", "a0", "samples", "base_norm", "min_excess", "all_in_resolvent_set"]
    data = report.to_dict()
    assert list(data) == fields + ["fitted_delta", "fitted_C"]
    assert list(data["samples"][1]) == ["t", "zeta", "norm"]
    assert data["samples"][1]["zeta"] == [report.samples[1][1].real, report.samples[1][1].imag]
    nofit = rg.sample_segment(diag03, diag_point, 0.25, 8, direction=0.0)
    assert list(nofit.to_dict()) == fields

    check = rg.verify_growth_bound(report, rg.GrowthCase.LINEAR)
    assert list(check.to_dict()) == ["passed", "delta", "constant", "witness"]
    point = rg.analyze_point(shift4, 0j)
    flat = rg.sample_segment(shift4, point, 0.05, 8, direction=0.0)
    witness = rg.verify_growth_bound(flat, rg.GrowthCase.LINEAR).to_dict()["witness"]
    assert list(witness) == ["t", "zeta", "norm", "required"]

    probe = rg.local_min_probe(shift4, 0j, 0.05).to_dict()
    assert list(probe) == [
        "is_local_min",
        "base_norm",
        "radii",
        "profile",
        "fitted_exponent",
        "fitted_constant",
        "min_excess",
    ]
    assert isinstance(probe["radii"], list)
    taylor = rg.taylor_remainder_check(
        diag03, 1.0 + 0j, diag_point.psi, diag_point.theta0, rg.default_taylor_steps()
    ).to_dict()
    assert list(taylor) == ["steps", "residuals", "fitted_order"]
    assert isinstance(taylor["steps"], list)


def test_plain_results_inherit_result_to_dict(diag03, diag_point, shift4):
    """The five results without a layout of their own define no to_dict:
    each is ``Result.to_dict``, the result's payload."""
    report = rg.sample_segment(diag03, diag_point, 0.25, 8)
    results = [
        diag_point,
        rg.verify_growth_bound(report, rg.GrowthCase.LINEAR),
        rg.local_min_probe(shift4, 0j, 0.05),
        rg.taylor_remainder_check(
            diag03, 1.0 + 0j, diag_point.psi, diag_point.theta0, rg.default_taylor_steps()
        ),
        rg.find_path(diag03, 1.25, 1.0 + 0j)[1],
    ]
    for result in results:
        assert type(result).to_dict is Result.to_dict
        assert result.to_dict() == payload(result)
    for layout in (rg.SegmentReport, rg.PolyPath):
        assert issubclass(layout, Result) and "to_dict" in vars(layout)


def test_segment_report_serialization(diag03, diag_point):
    report = rg.sample_segment(diag03, diag_point, 0.25, 8)
    data = report.to_dict()
    assert data["a0"] == 0.25
    assert len(data["samples"]) == 9
    assert set(data["samples"][0]) == {"t", "zeta", "norm"}
    assert "fitted_delta" in data
    nofit = rg.sample_segment(diag03, diag_point, 0.25, 8, direction=0.0)
    assert "fitted_delta" not in nofit.to_dict()
    csv = report.to_csv().splitlines()
    assert csv[0] == "t,re,im,norm"
    assert len(csv) == 10


def test_local_min_probe_positive(shift4):
    probe = rg.local_min_probe(shift4, 0j, 0.05)
    assert probe.is_local_min
    assert probe.min_excess >= 0
    assert 1.7 <= probe.fitted_exponent <= 2.3
    assert probe.fitted_constant > 0
    assert len(probe.radii) == 6 and len(probe.profile) == 6
    # radial profile grows strictly with the radius
    assert np.all(np.diff(probe.profile) > 0)


def test_local_min_probe_negative(diag03):
    probe = rg.local_min_probe(diag03, 1.0 + 0j, 0.05)
    assert not probe.is_local_min
    assert probe.min_excess < 0


def test_local_min_probe_validation(diag03, shift4):
    with pytest.raises(ValueError):
        rg.local_min_probe(shift4, 0j, 0.05, angular=7)
    with pytest.raises(ValueError):
        rg.local_min_probe(shift4, 0j, 0.05, radial=3)
    with pytest.raises(ValueError):
        rg.local_min_probe(shift4, 0j, 0.0)
    with pytest.raises(rg.DomainError):
        rg.local_min_probe(diag03, 1.0 + 0j, 1.5)


def test_taylor_cubic_remainder(diag03, diag_point):
    check = rg.taylor_remainder_check(
        diag03, 1.0 + 0j, diag_point.psi, diag_point.theta0, rg.default_taylor_steps()
    )
    assert 2.7 <= check.fitted_order <= 3.3
    r = np.array(check.residuals)
    ratios = r[:-1] / r[1:]
    assert np.all((ratios >= 6.0) & (ratios <= 10.0))
    assert check.to_dict()["fitted_order"] == check.fitted_order


def test_taylor_generic_point_on_shift(shift2):
    z = 0.15 + 0.1j
    point = rg.analyze_point(shift2, z)
    check = rg.taylor_remainder_check(
        shift2, z, point.psi, point.theta0, rg.default_taylor_steps()
    )
    assert 2.7 <= check.fitted_order <= 3.3


def test_taylor_symmetric_point_remainder_is_quartic(shift2):
    # at z=0 the squared norm along the real axis is an even function,
    # so the cubic term vanishes identically and the remainder decays
    # one order faster than the generic estimate
    point = rg.analyze_point(shift2, 0j)
    check = rg.taylor_remainder_check(
        shift2, 0j, point.psi, point.theta0, rg.default_taylor_steps()
    )
    assert check.fitted_order > 3.5


def test_taylor_fit_skips_rounding_level_residuals(shift4):
    """At z = 0 on shift [2, 1, 1, 1] the remainder is quartic, and the
    last residuals sit at rounding level against ||R psi||^2 = 4; fitting
    only the leading residuals above the floor recovers the order 4."""
    point = rg.analyze_point(shift4, 0j)
    check = rg.taylor_remainder_check(shift4, 0j, point.psi, 0.0, rg.default_taylor_steps())
    assert check.residuals[-1] < EXCESS_FLOOR_REL * 4.0
    assert check.fitted_order == pytest.approx(4.0, abs=1e-3)


def test_taylor_first_order_coefficient_matches_alpha(diag03, diag_point):
    # central difference of ||R(zeta) psi||^2 along the growth direction
    theta = diag_point.theta0
    w = np.exp(-1j * theta)
    h = 1e-5

    def g(t):
        u = rg.shifted_solve(diag03, 1.0 + 0j + t * w, diag_point.psi)
        return float(np.vdot(u, u).real)

    slope = (g(h) - g(-h)) / (2.0 * h)
    expected = 2.0 * (w * diag_point.alpha).real
    assert slope == pytest.approx(expected, rel=1e-6)


def test_taylor_validation(diag03, diag_point):
    psi, theta = diag_point.psi, diag_point.theta0
    with pytest.raises(ValueError):
        rg.taylor_remainder_check(diag03, 1.0 + 0j, psi, theta, ())
    with pytest.raises(ValueError):
        rg.taylor_remainder_check(diag03, 1.0 + 0j, psi, theta, (1e-3, 1e-3))
    with pytest.raises(ValueError):
        rg.taylor_remainder_check(diag03, 1.0 + 0j, psi, theta, (1e-3, -1e-4))
    # one step fits no order
    with pytest.raises(ValueError, match="steps must be a decreasing sequence of two or more"):
        rg.taylor_remainder_check(diag03, 1.0 + 0j, psi, theta, (1e-3,))
    with pytest.raises(rg.DomainError):
        rg.taylor_remainder_check(diag03, 1.0 + 0j, psi, theta, (0.5, 0.25))


def test_probes_at_a_numerically_singular_shift_raise():
    """On jordan_block(16, 0) at z = 0.1, sigma_min is 9.9e-17 but the
    spectral distance is 0.1: the probes pass their domain checks and
    raise NearSingularError, as documented.  The Taylor check also
    raises at a step point: from z = 0.3 (sigma_min 3.9e-9) the step
    0.14 along theta0 = pi reaches 0.16, where sigma_min is 1.8e-13."""
    a = rg.jordan_block(16, 0.0)
    with pytest.raises(rg.NearSingularError):
        rg.local_min_probe(a, 0.1, 0.05)
    with pytest.raises(rg.NearSingularError):
        rg.taylor_remainder_check(a, 0.1, np.eye(16)[0], 0.0, (0.01, 0.005))
    with pytest.raises(rg.NearSingularError):
        rg.taylor_remainder_check(a, 0.3, np.eye(16)[0], np.pi, (0.14, 0.07))


def test_taylor_guard_across_chunks(monkeypatch):
    """With one 16 x 16 stack per chunk, the guard of solve_nearby checks
    every chunk's stack: the residuals on jordan_block(16, 0) at z = 0.3
    equal the one-chunk run bitwise, and the singular step point 0.16 raises
    with the one-chunk sigma_min."""
    a, psi = rg.jordan_block(16, 0.0), np.eye(16)[0]

    def run():
        with pytest.raises(rg.NearSingularError) as err:
            rg.taylor_remainder_check(a, 0.3, psi, np.pi, (0.14, 0.07))
        return rg.taylor_remainder_check(a, 0.3, psi, 0.0, (1e-3, 5e-4)), err.value.sigma_min

    check, sigma = run()
    assert sigma == 1.7974507425422534e-13
    monkeypatch.setattr(linalg, "_CHUNK_BYTES", 16 * 16 * 16)
    with mock.patch.object(linalg, "_sigma_min_svd", wraps=linalg._sigma_min_svd) as svd:
        chunked, chunked_sigma = run()
    # the singular run stops at its first chunk; the other run's two chunks pass
    assert [len(c.args[1]) for c in svd.call_args_list] == [1, 1, 1]
    assert chunked.residuals == check.residuals and chunked_sigma == sigma


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 32),
    seed=st.integers(0, 2**20),
    re=st.floats(-4.0, 4.0),
    im=st.floats(-4.0, 4.0),
)
def test_taylor_batched_solve_matches_per_step_solver(n, seed, re, im):
    """The residuals of the batched step solve equal those recomputed with a
    full ShiftedSolver at every step point z + w, to 1e-10 ||R(z) psi||^2."""
    op, z = rg.Operator(rg.random_dense(n, seed)), complex(re, im)
    if rg.spectral_distance(op.eigenvalues, z) <= 0.05:
        return
    point = rg.analyze_point(op, z)
    theta0 = 0.7 if point.theta0 is None else point.theta0
    steps = rg.default_taylor_steps()
    check = rg.taylor_remainder_check(op, z, point.psi, theta0, steps)
    alpha, beta, gamma, base_sq = _growth_quantities(rg.ShiftedSolver(op, z), point.psi)
    reference = []
    for h in steps:
        w = h * np.exp(-1j * theta0)
        u = rg.ShiftedSolver(op, z + w).solve(point.psi)
        model = base_sq + 2.0 * (w * alpha).real + h * h * beta + 2.0 * (w * w * gamma).real
        reference.append(abs(float(np.vdot(u, u).real) - model))
    assert np.max(np.abs(np.array(check.residuals) - reference)) <= 1e-10 * base_sq


@pytest.fixture
def work_counts(monkeypatch):
    """Calls of linalg.svd, of sigma_min_batch and of the batched-SVD kernel
    linalg._sigma_min_svd, counted by wrapping them in linalg and under
    growth's own name."""
    counts = {"svd": 0, "sigma_min_batch": 0, "_sigma_min_svd": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(linalg, "svd", counted("svd", linalg.svd))
    batch = counted("sigma_min_batch", linalg.sigma_min_batch)
    monkeypatch.setattr(linalg, "sigma_min_batch", batch)
    monkeypatch.setattr(growth, "sigma_min_batch", batch)
    monkeypatch.setattr(linalg, "_sigma_min_svd", counted("_sigma_min_svd", linalg._sigma_min_svd))
    return counts


def test_taylor_check_factors_only_the_base_shift(work_counts):
    """Away from the spectrum the check makes one SVD, at z, and evaluates
    no sigma_min at the step points: no factorization per step."""
    op = rg.Operator(rg.random_dense(32, 1))
    z = 12.0 + 1.0j
    assert rg.spectral_distance(op.eigenvalues, z) > 1.0
    check = rg.taylor_remainder_check(op, z, np.eye(32)[0], 0.3, rg.default_taylor_steps())
    assert len(check.residuals) == 7
    assert work_counts == {"svd": 1, "sigma_min_batch": 0, "_sigma_min_svd": 0}


def test_taylor_guard_without_a_singular_step(work_counts):
    """On jordan_block(16, 0) at z = 0.3, sigma_min is 3.9e-9, so the
    Lipschitz guard evaluates the step points, in one batched SVD; none of
    them is singular and the check returns its fit."""
    a = rg.jordan_block(16, 0.0)
    check = rg.taylor_remainder_check(a, 0.3, np.eye(16)[0], 0.0, (1e-3, 5e-4))
    assert work_counts == {"svd": 1, "sigma_min_batch": 0, "_sigma_min_svd": 1}
    assert check.fitted_order == pytest.approx(2.99586, abs=1e-5)


def test_default_taylor_steps():
    steps = rg.default_taylor_steps()
    assert len(steps) == 7
    assert steps[0] == 1e-2
    assert steps[-1] == pytest.approx(1e-2 * 0.5**6)
    assert all(a / b == pytest.approx(2.0) for a, b in zip(steps, steps[1:]))
    for start, levels in ((0.0, 7), (-1e-2, 7), (1e-2, 0)):
        with pytest.raises(ValueError):
            rg.default_taylor_steps(start, levels)


def test_excess_floor_is_tiny():
    # the noise floor must sit far below any excess the tests rely on
    assert EXCESS_FLOOR_REL < 1e-10
