"""End-to-end acceptance gate.

One test per numbered criterion, each printing a single
"ACCEPTANCE <n> PASS/FAIL" line with its headline numbers; the final
test reruns everything and insists on byte-identical JSON payloads.
Every criterion is deterministic: fixed seeds, no timestamps.
"""

import time

import numpy as np
import pytest

import resgrow as rg
from resgrow.serialize import dumps

TAYLOR_ORDER_RANGE = (2.7, 3.3)
TAYLOR_RATIO_RANGE = (6.0, 10.0)


def _diag03():
    return np.diag([0.0 + 0j, 3.0 + 0j])


def criterion_1():
    """Normal matrices: resolvent norm equals 1/dist to the spectrum."""
    rng = np.random.default_rng(1001)
    worst = 0.0
    points = 0
    for _ in range(100):
        n = int(rng.integers(1, 17))
        diag = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a = np.diag(diag)
        for _ in range(10):
            while True:
                z = complex(*(2.0 * rng.standard_normal(2)))
                dist = float(np.min(np.abs(diag - z)))
                if dist > 1e-6:
                    break
            rel = abs(rg.resolvent_norm(a, z) - 1.0 / dist) * dist
            worst = max(worst, rel)
            points += 1
    payload = {"matrices": 100, "points": points, "max_rel_err": worst, "tol": 1e-10}
    return worst <= 1e-10, payload


def criterion_2():
    """Growth chain on diag(0,3) from z=1: nine samples toward 0.75."""
    a = _diag03()
    point = rg.analyze_point(a, 1.0 + 0j)
    report = rg.sample_segment(a, point, 0.25, 8)
    dist = point.spectral_distance
    margins = [
        norm - (report.base_norm + abs(zeta - report.z) / dist**2)
        for _, zeta, norm in report.samples
    ]
    chain_ok = all(m >= -1e-9 for m in margins)
    delta_ok = report.fitted_delta is not None and 0.95 <= report.fitted_delta <= 1.05
    payload = {
        "samples": len(report.samples),
        "fitted_delta": report.fitted_delta,
        "min_chain_margin": min(margins),
        "min_excess": report.min_excess,
    }
    return chain_ok and delta_ok and len(report.samples) == 9, payload


def criterion_3():
    """Second-order specimen: cyclic shift with weights (2, 1) at 0."""
    a = rg.weighted_shift([2, 1])
    p = rg.analyze_point(a, 0j)
    report = rg.sample_segment(a, p, 0.05, 16)
    checks = {
        "case_quadratic": p.case is rg.GrowthCase.QUADRATIC,
        "theta0_zero": p.theta0 is not None and abs(p.theta0) <= 1e-9,
        "alpha_zero": abs(p.alpha) <= 1e-12 * p.norm**3,
        "gamma_eight": abs(p.gamma - 8.0) <= 1e-9 * 8.0,
        "exponent_in_window": report.fitted_delta is not None
        and 1.7 <= report.fitted_delta <= 2.3,
    }
    payload = {
        "case": p.case.value,
        "theta0": p.theta0,
        "alpha_abs": abs(p.alpha),
        "gamma": [p.gamma.real, p.gamma.imag],
        "fitted_delta": report.fitted_delta,
        "checks": checks,
    }
    return all(checks.values()), payload


def criterion_4():
    """Flat specimen: weights (2,1,1,1) give a local minimum at 0."""
    a = rg.weighted_shift([2, 1, 1, 1])
    p = rg.analyze_point(a, 0j)
    probe = rg.local_min_probe(a, 0j, 0.05, radial=6, angular=16)
    ok = (
        p.case is rg.GrowthCase.LOCAL_MIN
        and probe.is_local_min
        and probe.fitted_exponent is not None
        and 1.7 <= probe.fitted_exponent <= 2.3
    )
    payload = {
        "case": p.case.value,
        "is_local_min": probe.is_local_min,
        "fitted_exponent": probe.fitted_exponent,
        "min_excess": probe.min_excess,
        "profile": list(probe.profile),
    }
    return ok, payload


def criterion_5():
    """Cubic remainder of the second-order expansion on all specimens.

    The shift specimens are probed at base points off their symmetry
    point: at z=0 their expansion remainder is an even function of the
    step (one order better than the generic cubic estimate), so the
    decay order is measured where the generic term is actually present.
    """
    cases = [
        ("diag03", _diag03(), 1.0 + 0j),
        ("shift2", rg.weighted_shift([2, 1]), 0.15 + 0.1j),
        ("shift4", rg.weighted_shift([2, 1, 1, 1]), 0.2 + 0.1j),
    ]
    results = []
    ok = True
    for name, a, z in cases:
        p = rg.analyze_point(a, z)
        check = rg.taylor_remainder_check(
            a, z, p.psi, p.theta0, rg.default_taylor_steps()
        )
        r = np.array(check.residuals)
        ratios = r[:-1] / r[1:]
        order_ok = TAYLOR_ORDER_RANGE[0] <= check.fitted_order <= TAYLOR_ORDER_RANGE[1]
        ratio_ok = bool(
            np.all((ratios >= TAYLOR_RATIO_RANGE[0]) & (ratios <= TAYLOR_RATIO_RANGE[1]))
        )
        ok = ok and order_ok and ratio_ok
        results.append(
            {
                "matrix": name,
                "z": [z.real, z.imag],
                "fitted_order": check.fitted_order,
                "ratios": [float(x) for x in ratios],
            }
        )
    return ok, {"cases": results}


def criterion_6():
    """Identity tying alpha and gamma to moments of the maximizer."""
    rng = np.random.default_rng(1006)
    worst_alpha = 0.0
    worst_gamma = 0.0
    used = 0
    for k in range(100):
        n = int(rng.integers(2, 9))
        a = rg.random_dense(n, 30000 + k)
        while True:
            z = complex(*(1.5 * rng.standard_normal(2)))
            try:
                p = rg.analyze_point(a, z)
            except rg.NearSingularError:
                continue
            if not p.degenerate:
                break
        w1 = rg.shifted_solve(a, z, p.psi)
        w2 = rg.shifted_solve(a, z, w1)
        f2 = p.norm**2
        alpha_err = abs(p.alpha - f2 * np.vdot(p.psi, w1)) / p.norm**3
        gamma_err = abs(p.gamma - f2 * np.vdot(p.psi, w2)) / p.norm**4
        worst_alpha = max(worst_alpha, float(alpha_err))
        worst_gamma = max(worst_gamma, float(gamma_err))
        used += 1
    payload = {
        "matrices": used,
        "max_alpha_err": worst_alpha,
        "max_gamma_err": worst_gamma,
        "tol": 1e-8,
    }
    return worst_alpha <= 1e-8 and worst_gamma <= 1e-8, payload


def criterion_7():
    """Certified paths to an eigenvalue on 100 seeded dense matrices."""
    rng = np.random.default_rng(1007)
    sizes = (4, 6, 8)
    successes = 0
    invalid = []
    search_failures = []
    for k in range(100):
        n = sizes[k % 3]
        a = rg.random_dense(n, 40000 + k)
        while True:
            z = complex(*(np.sqrt(n) * rng.standard_normal(2)))
            try:
                f = rg.resolvent_norm(a, z)
            except rg.NearSingularError:
                continue
            break
        epsilon = 1.3 / f
        try:
            path, cert = rg.find_path(a, epsilon, z)
        except rg.SearchError as exc:
            search_failures.append({"case": k, "reason": exc.reason})
            continue
        successes += 1
        if not cert.valid:
            invalid.append({"case": k, "failures": list(cert.failures)})
    payload = {
        "cases": 100,
        "successes": successes,
        "invalid_certificates": invalid,
        "search_failures": search_failures,
        "epsilon_rule": "1.3/f(z)",
    }
    return successes >= 99 and not invalid, payload


def criterion_8():
    """Connectivity counts on the alternating-diagonal family."""
    z4 = rg.zigzag_diagonal(4)
    grid = rg.grid_sigma_min(z4, -0.5, 5.5, -2.5, 2.5, 400, 400)
    order = rg.connectivity_order(grid, 1.08)
    inside = rg.components(grid, 1.08).count

    bound_checks = []
    suite = [
        ("diag03", _diag03()),
        ("shift2", rg.weighted_shift([2, 1])),
        ("shift4", rg.weighted_shift([2, 1, 1, 1])),
        ("zigzag4", z4),
        ("jordan4", rg.jordan_block(4, 0.5 + 0j)),
        ("random5", rg.random_dense(5, 42)),
    ]
    bound_ok = True
    for name, a in suite:
        g = rg.grid_sigma_min(a, -4.0, 6.0, -4.0, 4.0, 80, 64)
        for eps in (0.05, 0.3, 1.0, 1.08):
            count = rg.components(g, eps).count
            bound_ok = bound_ok and count <= a.shape[0]
            bound_checks.append({"matrix": name, "epsilon": eps, "count": count})
    payload = {
        "grid": {"bounds": [-0.5, 5.5, -2.5, 2.5], "nx": 400, "ny": 400, "epsilon": 1.08},
        "complement_components": order,
        "inside_components": inside,
        "component_bound_ok": bound_ok,
        "bound_checks": bound_checks,
    }
    return order == 3 and bound_ok, payload


CRITERIA = {
    1: ("normal resolvent identity", criterion_1),
    2: ("normal growth chain", criterion_2),
    3: ("quadratic-growth specimen", criterion_3),
    4: ("local-minimum specimen", criterion_4),
    5: ("expansion remainder order", criterion_5),
    6: ("maximizer moment identities", criterion_6),
    7: ("certified path suite", criterion_7),
    8: ("pseudospectrum connectivity", criterion_8),
}

_cache: dict[int, tuple[bool, str]] = {}


def run_criterion(num):
    if num not in _cache:
        passed, payload = CRITERIA[num][1]()
        _cache[num] = (passed, dumps(payload))
    return _cache[num]


def check(num):
    passed, payload_json = run_criterion(num)
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num} {verdict}: {CRITERIA[num][0]}")
    if not passed:
        print(payload_json)
    assert passed, f"criterion {num} ({CRITERIA[num][0]}) failed"


def test_criterion_1_normal_resolvent_identity():
    check(1)


def test_criterion_2_normal_growth_chain():
    check(2)


def test_criterion_3_quadratic_growth_specimen():
    check(3)


def test_criterion_4_local_minimum_specimen():
    check(4)


def test_criterion_5_expansion_remainder_order():
    check(5)


def test_criterion_6_maximizer_moment_identities():
    check(6)


def test_criterion_7_certified_path_suite():
    start = time.monotonic()
    check(7)
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE 7 runtime: {elapsed:.1f}s")
    assert elapsed < 60.0, f"path suite took {elapsed:.1f}s, budget is 60s"


def test_criterion_8_pseudospectrum_connectivity():
    check(8)


def test_criterion_9_byte_identical_reruns():
    mismatches = []
    for num in sorted(CRITERIA):
        _, first = run_criterion(num)
        _, payload = CRITERIA[num][1]()
        if dumps(payload) != first:
            mismatches.append(num)
    verdict = "PASS" if not mismatches else "FAIL"
    print(f"ACCEPTANCE 9 {verdict}: byte-identical reruns")
    assert not mismatches, f"criteria with non-identical payloads: {mismatches}"
