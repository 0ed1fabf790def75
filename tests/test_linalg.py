import json
import math
import multiprocessing
import os
import sys
import threading
import warnings
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resgrow as rg
from resgrow import linalg
from resgrow.config import _point
from resgrow.linalg import (
    as_matrix,
    as_vector,
    canonical_phase,
    norms_from_sigma,
    svd,
)


# the point at which the scalar-argument tests analyze random_dense(8, 1)
Z = 0.5 + 0.5j


def random_matrix(rng, n):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)


def test_as_matrix_validation():
    with pytest.raises(ValueError):
        as_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        as_matrix(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        as_matrix([1.0, 2.0])
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 0], [0, 1]])
    a = as_matrix([[1, 2], [3, 4]])
    assert a.dtype == complex


def test_as_vector_validation():
    with pytest.raises(ValueError):
        as_vector([[1.0]])
    with pytest.raises(ValueError):
        as_vector([1.0, 2.0], n=3)
    with pytest.raises(ValueError):
        as_vector([np.nan, 0.0])
    with pytest.raises(ValueError, match="vector entries must be numbers"):
        as_vector([1.0, object()])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda a, point, grid: rg.analyze_point(a, None), "z must be a complex number"),
        (lambda a, point, grid: rg.find_path(a, 0.5, None), "z must be a complex number"),
        (lambda a, point, grid: rg.find_path(a, "1", 0j), "epsilon must be positive"),
        (lambda a, point, grid: rg.local_min_probe(a, 0j, "x"), "r0 must be positive"),
        (
            lambda a, point, grid: rg.grid_sigma_min(a, 0, 1, 0, 1, "3", 3),
            "nx must be an integer >= 2",
        ),
        (lambda a, point, grid: rg.sample_segment(a, point, "x"), "a0 must be positive"),
        (lambda a, point, grid: rg.components(grid, "x"), "epsilon must be positive"),
        (
            lambda a, point, grid: rg.taylor_remainder_check(
                a, 0j, point.psi, None, rg.default_taylor_steps()
            ),
            "theta0 must be a number and finite",
        ),
        # counts that are not integers
        (lambda a, point, grid: rg.grid_sigma_min(a, 0, 1, 0, 1, 2.5, 3), "nx must be an integer"),
        (
            lambda a, point, grid: rg.grid_sigma_min(a, 0, 1, 0, 1, math.inf, 3),
            "nx must be an integer >= 2",
        ),
        (lambda a, point, grid: rg.local_min_probe(a, Z, 0.01, 4.5), "radial must be an integer"),
        (
            lambda a, point, grid: rg.local_min_probe(a, Z, 0.01, 4, 8.5),
            "angular must be an integer >= 8",
        ),
        (lambda a, point, grid: rg.sample_segment(a, point, 0.01, 8.5), "m must be an integer"),
        (lambda a, point, grid: rg.sample_segment_auto(a, point, 8.5), "m must be an integer >= 8"),
        (lambda a, point, grid: rg.default_taylor_steps(1e-2, 2.5), "levels must be an integer"),
        (lambda a, point, grid: rg.zigzag_diagonal(2.5), "n must be an integer >= 2"),
        (lambda a, point, grid: rg.zigzag_diagonal(None), "n must be an integer >= 2"),
        (lambda a, point, grid: rg.jordan_block(None, 0), "n must be an integer >= 1"),
        (lambda a, point, grid: rg.jordan_block(2.5, 0), "n must be an integer >= 1"),
        (lambda a, point, grid: rg.grcar(1.5), "n must be an integer >= 1"),
        (lambda a, point, grid: rg.grcar(True), "n must be an integer >= 1"),
        (lambda a, point, grid: rg.random_dense(None, 1), "n must be an integer >= 1"),
        (lambda a, point, grid: rg.random_dense(2.5, 1), "n must be an integer >= 1"),
        (lambda a, point, grid: rg.random_dense(3, "x"), "seed must be an integer >= 0"),
        # values that are not finite
        (
            lambda a, point, grid: rg.analyze_point(a, complex(math.inf, 0)),
            "z must be a complex number and finite",
        ),
        (
            lambda a, point, grid: rg.find_path(a, 0.5, complex(math.nan, 0)),
            "z must be a complex number and finite",
        ),
        (
            lambda a, point, grid: rg.local_min_probe(a, complex(math.nan, 0), 0.01),
            "z must be a complex number and finite",
        ),
        (
            lambda a, point, grid: rg.taylor_remainder_check(
                a, complex(math.inf, 0), point.psi, 0.0, rg.default_taylor_steps()
            ),
            "z must be a complex number and finite",
        ),
        (
            lambda a, point, grid: rg.sample_segment(a, point, 0.01, 16, math.nan),
            "direction must be a number and finite",
        ),
        # the direction is checked before the segment length
        (
            lambda a, point, grid: rg.sample_segment(
                np.diag([0j, 3]), rg.analyze_point(np.diag([0j, 3]), 1.0), 5.0, 16, math.nan
            ),
            "direction must be a number and finite",
        ),
        (
            lambda a, point, grid: rg.sample_segment(
                rg.circulant_weighted_shift_inverse([2, 1, 1, 1]),
                rg.analyze_point(rg.circulant_weighted_shift_inverse([2, 1, 1, 1]), 0j),
                5.0,
            ),
            "supply a direction",
        ),
        (
            lambda a, point, grid: rg.grid_sigma_min(a, -math.inf, 1, 0, 1, 3, 3),
            "re_min must be a number and finite",
        ),
        (lambda a, point, grid: rg.jordan_block(3, math.inf), "lam must be a complex number"),
        (lambda a, point, grid: rg.diagonal_normal([math.inf]), "entries entries must be finite"),
        (lambda a, point, grid: rg.find_path(a, math.inf, Z), "epsilon must be positive and finite"),
        # bool is not a number
        (lambda a, point, grid: rg.find_path(a, True, Z), "epsilon must be positive and finite"),
        # an integer too large for a float is not finite
        (
            lambda a, point, grid: rg.analyze_point(a, 10**400),
            "z must be a complex number and finite",
        ),
        (
            lambda a, point, grid: rg.find_path(a, 10**400, Z),
            "epsilon must be positive and finite",
        ),
        # classify_and_direction follows the scalar rule too
        (
            lambda a, point, grid: rg.classify_and_direction(0j, 0j, math.nan),
            "norm must be positive",
        ),
        (
            lambda a, point, grid: rg.classify_and_direction(0j, 0j, -1.0),
            "norm must be positive",
        ),
        (
            lambda a, point, grid: rg.classify_and_direction(True, 0j, 1.0),
            "alpha must be a complex",
        ),
        (
            lambda a, point, grid: rg.classify_and_direction("x", 0j, 1.0),
            "alpha must be a complex",
        ),
        (
            lambda a, point, grid: rg.classify_and_direction(0j, NAN, 1.0),
            "gamma must be a complex",
        ),
        # a PolyPath's delta is a real number other than NaN; +-inf pass
        (lambda a, point, grid: rg.PolyPath((Z, 0j), 0j, 1.0, math.nan), "delta must be a number"),
        (lambda a, point, grid: rg.PolyPath((Z, 0j), 0j, 1.0, True), "delta must be a number"),
        (lambda a, point, grid: rg.PolyPath((Z, 0j), 0j, 1.0, None), "delta must be a number"),
        (lambda a, point, grid: rg.PolyPath((Z, 0j), 0j, 1.0, "0.5"), "delta must be a number"),
        # cfg is a RunConfig, checked before anything is computed
        (lambda a, point, grid: rg.resolvent_norm(a, Z, {}), "cfg must be a RunConfig"),
        (
            lambda a, point, grid: rg.classify_and_direction(0j, 0j, 1.0, {}),
            "cfg must be a RunConfig",
        ),
        (lambda a, point, grid: rg.analyze_point(a, Z, {}), "cfg must be a RunConfig"),
        (lambda a, point, grid: rg.ShiftedSolver(a, Z, {}), "cfg must be a RunConfig"),
        (
            lambda a, point, grid: rg.shifted_solve(a, Z, np.ones(8), {}),
            "cfg must be a RunConfig",
        ),
        (
            lambda a, point, grid: rg.sample_segment(a, point, 0.01, 16, 0.0, {}),
            "cfg must be a RunConfig",
        ),
        (
            lambda a, point, grid: rg.sample_segment_auto(a, point, 16, 0.0, {}),
            "cfg must be a RunConfig",
        ),
        (
            lambda a, point, grid: rg.local_min_probe(a, Z, 0.01, 4, 8, {}),
            "cfg must be a RunConfig",
        ),
        (
            lambda a, point, grid: rg.taylor_remainder_check(
                a, Z, point.psi, 0.0, rg.default_taylor_steps(), {}
            ),
            "cfg must be a RunConfig",
        ),
        (lambda a, point, grid: rg.find_path(a, 0.5, Z, {}), "cfg must be a RunConfig"),
        (
            lambda a, point, grid: rg.operator_from_inverse(np.eye(2), {}),
            "cfg must be a RunConfig",
        ),
        (lambda a, point, grid: rg.weighted_shift([2, 1], {}), "cfg must be a RunConfig"),
        # a box whose width overflows a float is named as such, not by its cell centers
        (
            lambda a, point, grid: rg.grid_sigma_min(a, -1e308, 1e308, 0, 1, 2, 2),
            "grid bounds must span a finite width and height",
        ),
        (
            lambda a, point, grid: rg.grid_sigma_min(a, 1, 0, 0, 1, 2, 2),
            "grid bounds must satisfy re_min < re_max and im_min < im_max",
        ),
    ],
    ids=[
        "analyze-z", "path-z", "path-epsilon", "localmin-r0", "grid-nx", "segment-a0",
        "components-epsilon", "taylor-theta0",
        "grid-nx-fraction", "grid-nx-inf", "localmin-radial", "localmin-angular", "segment-m",
        "segment-auto-m", "taylor-levels", "zigzag-n-fraction", "zigzag-n-none",
        "jordan-n-none", "jordan-n-fraction", "grcar-n-fraction", "grcar-n-bool",
        "random-n-none", "random-n-fraction", "random-seed", "analyze-z-inf", "path-z-nan",
        "localmin-z-nan", "taylor-z-inf",
        "segment-direction-nan", "segment-direction-nan-long", "segment-no-direction-long",
        "grid-bound-inf", "jordan-lam-inf", "diagonal-inf",
        "path-epsilon-inf", "path-epsilon-bool", "analyze-z-huge-int", "path-epsilon-huge-int",
        "classify-norm-nan", "classify-norm-negative", "classify-alpha-bool", "classify-alpha-str",
        "classify-gamma-nan",
        "polypath-delta-nan", "polypath-delta-bool", "polypath-delta-none", "polypath-delta-str",
        "resolvent-norm-cfg-dict", "classify-cfg-dict", "analyze-cfg-dict", "solver-cfg-dict",
        "shifted-solve-cfg-dict", "segment-cfg-dict", "segment-auto-cfg-dict",
        "localmin-cfg-dict", "taylor-cfg-dict", "path-cfg-dict",
        "from-inverse-cfg-dict", "weighted-shift-cfg-dict",
        "grid-width-overflow", "grid-bounds-reversed",
    ],
)
def test_non_number_scalars_raise_value_error(call, message):
    """A scalar argument that is not a number, not finite or, for a count,
    not an integer fails like an out-of-range one, with a ValueError
    naming it, not with a TypeError, a warning or a wrong result."""
    a = rg.random_dense(8, 1)
    point = rg.analyze_point(a, Z)
    grid = rg.grid_sigma_min(a, 0, 1, 0, 1, 3, 3)
    with pytest.raises(ValueError, match=message):
        call(a, point, grid)


def test_numpy_scalars_are_accepted():
    """numpy integer, float and complex scalars give the results of the
    Python scalars of the same value."""
    a = rg.random_dense(8, 1)
    grid = rg.grid_sigma_min(a, 0, 1, -0.5, 0.5, 3, 4)
    np_grid = rg.grid_sigma_min(
        a, np.int64(0), np.float64(1), np.float64(-0.5), np.float64(0.5), np.int64(3), np.int64(4)
    )
    assert np.array_equal(np_grid.values, grid.values)
    assert (np_grid.re_min, np_grid.im_max, np_grid.nx, np_grid.ny) == (0.0, 0.5, 3, 4)
    assert type(np_grid.re_min) is float and type(np_grid.nx) is int
    probe = rg.local_min_probe(a, Z, 0.01, 4, 8)
    np_probe = rg.local_min_probe(a, np.complex128(Z), np.float64(0.01), np.int64(4), np.int64(8))
    assert np_probe == probe
    path, cert = rg.find_path(a, 0.5, Z)
    np_path, np_cert = rg.find_path(a, np.float64(0.5), np.complex128(Z))
    assert (np_path, np_cert) == (path, cert)
    assert type(np_path.epsilon) is float


NAN, INF = complex(math.nan, 0), complex(math.inf, 0)


@pytest.mark.parametrize(
    "call, message",
    [
        # point sets of sigma_min_batch: 1-D and finite
        (lambda a: rg.sigma_min_batch(a, [NAN]), "zs entries must be finite"),
        (lambda a: rg.sigma_min_batch(a, [None]), "zs entries must be numbers"),
        (
            lambda a: rg.sigma_min_batch(rg.random_dense(64, 1), [INF] * 64),
            "zs entries must be finite",
        ),
        (lambda a: rg.sigma_min_batch(a, ["x"]), "zs entries must be numbers"),
        (lambda a: rg.sigma_min_batch(a, 0.5), "zs must be 1-dimensional"),
        (
            lambda a: rg.sigma_min_batch(a, [[0.1, 0.2], [0.3, 0.4]]),
            "zs must be 1-dimensional",
        ),
        # eigenvalues of spectral_distance: also non-empty
        (lambda a: rg.spectral_distance([NAN], Z), "eigs entries must be finite"),
        (lambda a: rg.spectral_distance([None], Z), "eigs entries must be numbers"),
        (lambda a: rg.spectral_distance([], Z), "eigs has 0 entries, needs at least 1"),
        # the vector of canonical_phase
        (lambda a: canonical_phase([math.nan, 1.0]), "v entries must be finite"),
        (lambda a: canonical_phase([[1.0, 2.0]]), "v must be 1-dimensional"),
        # a PolyPath checks its points and epsilon at construction
        (lambda a: rg.PolyPath((NAN, 0j), 0j, 1.0, 0.0), "vertices entries must be finite"),
        (lambda a: rg.PolyPath((INF, 0j), 0j, 1.0, 0.0), "vertices entries must be finite"),
        (lambda a: rg.PolyPath((None,), 0j, 1.0, 0.0), "vertices entries must be numbers"),
        (lambda a: rg.PolyPath((), 0j, 1.0, 0.0), "vertices has 0 entries, needs at least 1"),
        (lambda a: rg.PolyPath((Z,), Z, -1.0, 0.0), "epsilon must be positive"),
        (
            lambda a: rg.PolyPath((Z, 0j), NAN, 1.0, 0.0),
            "eigenvalue must be a complex number and finite",
        ),
        # vectors are named in every message
        (lambda a: rg.ShiftedSolver(a, Z).solve([1, 2, 3]), "b has length 3, expected 8"),
        (
            lambda a: rg.taylor_remainder_check(a, Z, [1, 2], 0.0, (1e-3, 5e-4)),
            "psi has length 2, expected 8",
        ),
        (
            lambda a: rg.taylor_remainder_check(a, Z, [math.nan] * 8, 0.0, (1e-3, 5e-4)),
            "psi entries must be finite",
        ),
        # psi is checked before the spectrum and the SVD are computed
        (
            lambda a: rg.taylor_remainder_check(
                rg.jordan_block(16, 0), 0.1, [1, 2], 0.0, (0.01, 0.005)
            ),
            "psi has length 2, expected 16",
        ),
        (
            lambda a: rg.taylor_remainder_check(a, Z, [1, 2], 0.0, (10.0, 5.0)),
            "psi has length 2, expected 8",
        ),
        (
            lambda a: rg.circulant_weighted_shift_inverse([2, math.inf]),
            "weights entries must be finite",
        ),
        # bool and strings are not numbers, as for scalar arguments
        (lambda a: rg.sigma_min_batch(a, [True]), "zs entries must be numbers"),
        (lambda a: rg.sigma_min_batch(a, ["0.5"]), "zs entries must be numbers"),
        (lambda a: rg.PolyPath((True, 0j), 0j, 1.0, 0.0), "vertices entries must be numbers"),
        (lambda a: rg.Operator(np.eye(2, dtype=bool)), "matrix entries must be numbers"),
        # an integer too large for a float is not finite
        (lambda a: rg.sigma_min_batch(a, [10**400]), "zs entries must be finite"),
        # every array must hold an entry, weights two
        (lambda a: canonical_phase([]), "v has 0 entries, needs at least 1"),
        (
            lambda a: rg.circulant_weighted_shift_inverse([2]),
            "weights has 1 entries, needs at least 2",
        ),
        (lambda a: rg.weighted_shift([2]), "weights has 1 entries, needs at least 2"),
        (lambda a: rg.weighted_shift([2, math.inf]), "weights entries must be finite"),
    ],
    ids=[
        "batch-nan", "batch-none", "batch-inf-schur", "batch-string", "batch-scalar",
        "batch-2d", "distance-nan", "distance-none", "distance-empty", "phase-nan",
        "phase-2d", "path-vertex-nan", "path-vertex-inf", "path-vertex-none",
        "path-no-vertices", "path-epsilon-negative", "path-eigenvalue-nan", "solve-b-length",
        "taylor-psi-length", "quantities-psi-nan", "taylor-psi-at-singular-shift",
        "taylor-psi-with-long-step", "shift-weights-inf", "batch-bool",
        "batch-numeric-string", "path-vertex-bool", "matrix-bool-dtype", "batch-huge-int",
        "phase-empty", "shift-one-weight", "weighted-shift-one-weight",
        "weighted-shift-weights-inf",
    ],
)
def test_bad_arrays_raise_value_error(call, message):
    """A matrix, vector or point set whose entries are not finite numbers,
    or that has the wrong number of dimensions, fails with a ValueError
    naming the argument, not with a numpy error, a warning, a
    DecompositionError or a result computed from it."""
    with pytest.raises(ValueError, match=message):
        call(rg.random_dense(8, 1))


def test_sigma_min_batch_takes_any_sequence():
    """A list, a tuple and an ndarray of the same points give equal results."""
    a = rg.random_dense(8, 1)
    zs = [Z, 0.1 - 2j, 3.0]
    ref = rg.sigma_min_batch(a, np.array(zs))
    assert np.array_equal(rg.sigma_min_batch(a, zs), ref)
    assert np.array_equal(rg.sigma_min_batch(a, tuple(zs)), ref)


def test_subnormal_sigma_gives_inf_without_overflow_warning():
    """sigma below 1/max-float gives the norm inf and no overflow warning, in
    norms_from_sigma and in the certificate and the search that use it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms = norms_from_sigma(np.array([0.0, 5e-324, 1e-310, 2.3e-308, 1.0]))
        a = np.diag([0j, 3])
        cert = rg.certify_path(a, rg.PolyPath((0.5, 1e-310, 0), 0, 1.0, 0.0))
        path, found = rg.find_path(a, 1.0, 5e-324)
    assert norms[:3].tolist() == [math.inf] * 3
    assert norms[3] == 1.0 / 2.3e-308 and norms[4] == 1.0
    assert cert.valid, cert.failures
    assert found.valid, found.failures
    assert path.vertices == (5e-324, 0j) and path.eigenvalue == 0j
    assert path.delta == math.inf


_ENTRIES = st.one_of(
    st.integers(),
    st.integers(10**300, 10**400).flatmap(lambda k: st.sampled_from([k, -k])),
    st.floats(),
    st.complex_numbers(),
    st.sampled_from([True, False, np.True_, None, "0.5", b"0.5", 10**400, Decimal("0.5")]),
    st.fractions(),
    st.decimals(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.complex_numbers(width=64).map(np.complex64),
    st.complex_numbers().map(np.complex128),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(x=_ENTRIES)
def test_array_and_scalar_rules_agree_on_numbers(x):
    """The array rule takes an entry exactly when the scalar rule takes
    it as a point, and gives the same complex value, bit for bit."""
    try:
        expected = _point("x", x)
    except ValueError:
        with pytest.raises(ValueError, match="x entries must be"):
            linalg._complex_array("x", [x], 1)
        return
    assert linalg._complex_array("x", [x], 1).tobytes() == np.array([expected]).tobytes()


def test_svd_reconstructs():
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 9, 32):
        a = random_matrix(rng, n)
        dec = svd(a)
        rebuilt = (dec.left * dec.values) @ dec.right.conj().T
        assert np.linalg.norm(rebuilt - a) <= 1e-12 * max(1.0, dec.values[0])
        assert np.all(np.diff(dec.values) <= 0)
        assert np.linalg.norm(dec.left.conj().T @ dec.left - np.eye(n)) <= 1e-12
        assert np.linalg.norm(dec.right.conj().T @ dec.right - np.eye(n)) <= 1e-12


def test_svd_known_values():
    assert np.allclose(svd(np.eye(2)).values, [1.0, 1.0])
    assert np.allclose(svd(np.diag([3.0, -1.0])).values, [3.0, 1.0])
    # M*M = diag(1, 4) by hand
    assert np.allclose(svd(np.array([[0.0, 2.0], [1.0, 0.0]])).values, [2.0, 1.0])


def test_canonical_phase():
    v = np.array([0.3 - 0.4j, 0.8j])
    w = canonical_phase(v)
    i = int(np.argmax(np.abs(w)))
    assert w[i].imag == pytest.approx(0.0, abs=1e-16)
    assert w[i].real > 0
    # invariant under global phase
    w2 = canonical_phase(v * np.exp(1.234j))
    assert np.allclose(w, w2)
    with pytest.raises(ValueError):
        canonical_phase(np.zeros(3, dtype=complex))


def _smallest_pair(m):
    """sigma_min of m and its phase-fixed left singular vector."""
    solver = rg.ShiftedSolver(m, 0j)
    return solver.sigma_min, solver.min_left_vector()


def test_smallest_singular_pair_identity_tie_rule():
    s, psi = _smallest_pair(np.eye(4, dtype=complex))
    assert s == pytest.approx(1.0)
    assert np.allclose(psi, np.eye(4)[0])


def test_smallest_singular_pair_known_vectors():
    s, u = _smallest_pair(np.diag([-1.0, 2.0]))
    assert s == pytest.approx(1.0)
    assert np.allclose(u, [1.0, 0.0])
    s, u = _smallest_pair(np.array([[0.0, 2.0], [1.0, 0.0]]))
    assert s == pytest.approx(1.0)
    assert np.allclose(u, [0.0, 1.0])


def test_smallest_singular_pair_matches_definition():
    rng = np.random.default_rng(21)
    for _ in range(20):
        a = random_matrix(rng, 6)
        s, psi = _smallest_pair(a)
        assert np.linalg.norm(psi) == pytest.approx(1.0, rel=1e-12)
        # psi is a left singular vector: ||M* psi|| = sigma_min
        assert np.linalg.norm(a.conj().T @ psi) == pytest.approx(s, rel=1e-9, abs=1e-12)
        assert s == pytest.approx(np.linalg.svd(a, compute_uv=False)[-1], rel=1e-12)


def test_shifted_jordan_sigma_min_closed_form():
    # For the 2x2 nilpotent Jordan block shifted by 1, M* M has
    # characteristic polynomial s^2 - 3 s + 1, so sigma_min is the
    # square root of (3 - sqrt 5)/2, the inverse golden ratio.
    m = rg.jordan_block(2, 0.0) - np.eye(2)
    s, _ = _smallest_pair(m)
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    assert s == pytest.approx(1.0 / golden, rel=1e-14)
    roots = np.roots([1.0, -3.0, 1.0])
    assert s == pytest.approx(np.sqrt(np.min(roots.real)), rel=1e-12)


def test_solver_norm_matches_explicit_inverse():
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = random_matrix(rng, 7)
        z = complex(rng.standard_normal(), rng.standard_normal())
        solver = rg.ShiftedSolver(a, z)
        oracle = np.linalg.norm(np.linalg.inv(a - z * np.eye(7)), 2)
        assert solver.norm == pytest.approx(oracle, rel=1e-10)


def test_solver_solve_residual():
    rng = np.random.default_rng(5)
    a = random_matrix(rng, 8)
    z = 0.25 + 0.1j
    solver = rg.ShiftedSolver(a, z)
    for _ in range(10):
        b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        x = solver.solve(b)
        resid = np.linalg.norm((a - z * np.eye(8)) @ x - b)
        assert resid <= 1e-10 * (np.linalg.norm(a - z * np.eye(8), 2) * np.linalg.norm(x) + np.linalg.norm(b))


def test_shifted_solve_known_solutions(diag03):
    x = rg.shifted_solve(np.zeros((1, 1)), -1.0 + 0j, [1.0])
    assert np.allclose(x, [1.0])
    x = rg.shifted_solve(diag03, 1.0 + 0j, np.eye(2)[0])
    assert np.allclose(x, [-1.0, 0.0])
    m = rg.circulant_weighted_shift_inverse([2, 1])
    a = rg.operator_from_inverse(m)
    x = rg.shifted_solve(a, 0j, np.eye(2)[1])
    assert np.allclose(x, m @ np.eye(2)[1])


def test_solver_near_singular(diag03):
    with pytest.raises(rg.NearSingularError) as err:
        rg.ShiftedSolver(diag03, 0.0 + 0j)
    assert err.value.sigma_min == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(rg.NearSingularError):
        rg.shifted_solve(diag03, 3.0 + 1e-14j, np.ones(2))


def test_solver_degenerate_flag(diag03, zigzag2):
    assert not rg.ShiftedSolver(diag03, 1.0 + 0j).degenerate()
    # 1.5 is equidistant from both zigzag eigenvalues
    assert rg.ShiftedSolver(zigzag2, 1.5 + 0j).degenerate()
    assert not rg.ShiftedSolver(np.eye(1) * 2.0, 0.5 + 0j).degenerate()


@pytest.mark.parametrize(
    "values",
    [[2.0]] + [[1.0 + gap, 3.0, 1.0, 1.0 + 2 * gap] for gap in (0.0, 1e-14, 1e-9, 1e-7, 1e-5)],
    ids=["n1", "exact", "gap-1e-14", "gap-1e-9", "gap-1e-7", "gap-1e-5"],
)
def test_tie_rule_keeps_both_answers(values):
    """One tie rule answers as the two formulas it replaced: ``degenerate`` as
    1 - s_n/s_(n-1) < degeneracy_gap (False for n = 1), ``min_left_vector`` as
    the left vector of the first s_k <= s_n (1 + _TIE_REL)."""
    solver = rg.ShiftedSolver(np.diag(values), 0)
    u, s, _ = solver.decomposition
    ratio_test = s.shape[0] > 1 and 1.0 - s[-1] / s[-2] < solver.cfg.degeneracy_gap
    first = np.flatnonzero(s <= s[-1] * (1.0 + linalg._TIE_REL))[0]
    assert solver.degenerate() == ratio_test
    assert np.array_equal(solver.min_left_vector(), canonical_phase(u[:, first]))


def test_eigenvalues_sorted_and_accurate():
    a = np.diag([1.0 + 1j, 0.0 + 0j, 1.0 - 1j])
    vals = rg.eigenvalues(a)
    assert np.allclose(vals, [0.0, 1.0 - 1j, 1.0 + 1j])
    assert np.allclose(rg.eigenvalues(np.diag([1.0 + 2j, 4.0 + 0j])), [1.0 + 2j, 4.0])
    # lambda^2 = 2 for the (2,1)-weighted two-cycle
    two_cycle = np.array([[0.0, 2.0], [1.0, 0.0]])
    assert np.allclose(rg.eigenvalues(two_cycle), [-np.sqrt(2.0), np.sqrt(2.0)])
    h = np.sqrt(3.0) / 2.0
    assert np.allclose(rg.eigenvalues(rg.zigzag_diagonal(2)), [1.0 - 1j * h, 2.0 + 1j * h])
    rng = np.random.default_rng(13)
    for _ in range(10):
        b = random_matrix(rng, 6)
        vals = rg.eigenvalues(b)
        order = np.lexsort((vals.imag, vals.real))
        assert np.all(order == np.arange(6))
        for lam in vals:
            resid = np.linalg.svd(b - lam * np.eye(6), compute_uv=False)[-1]
            assert resid <= 1e-8 * max(1.0, np.linalg.norm(b, 2))


def test_spectral_distance():
    eigs = np.array([0.0, 3.0 + 0j])
    assert rg.spectral_distance(eigs, 1.0 + 0j) == pytest.approx(1.0)
    assert rg.spectral_distance(eigs, 3.0 + 4j) == pytest.approx(4.0)


def test_sigma_min_batch_matches_loop():
    rng = np.random.default_rng(17)
    a = random_matrix(rng, 5)
    zs = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    batch = rg.sigma_min_batch(a, zs)
    for k, z in enumerate(zs):
        ref = np.linalg.svd(a - z * np.eye(5), compute_uv=False)[-1]
        assert batch[k] == pytest.approx(ref, rel=1e-12, abs=1e-15)


def test_sigma_min_batch_chunking_and_exact_hits(diag03, monkeypatch):
    zs = np.array([0.0 + 0j, 3.0 + 0j, 1.0 + 0j])
    monkeypatch.setattr(linalg, "_CHUNK_BYTES", 64)  # forces chunk size 1
    vals = rg.sigma_min_batch(diag03, zs)
    assert vals[0] == pytest.approx(0.0, abs=1e-14)
    assert vals[1] == pytest.approx(0.0, abs=1e-14)
    assert vals[2] == pytest.approx(1.0)
    # the Schur route, in chunks of 7 points: exact hits, overflowing
    # points and ordinary ones mixed across chunk boundaries
    n = 48
    a = rg.jordan_block(n, 0.3 - 0.2j)
    zs = _schur_test_points(a, np.random.default_rng(3), 64)
    monkeypatch.setattr(linalg, "_CHUNK_BYTES", 7 * 16 * n * n)
    vals = rg.sigma_min_batch(a, zs)
    _assert_matches_svd(a, zs, vals)


def _svd_sigma_min(a, zs):
    """Reference: sigma_min of every shifted matrix by one batched SVD."""
    stack = a[None, :, :] - np.asarray(zs)[:, None, None] * np.eye(a.shape[0])
    return np.linalg.svd(stack, compute_uv=False)[:, -1]


_SCHUR_FAMILIES = {
    "random_dense": lambda n: rg.random_dense(n, n),
    "jordan": lambda n: rg.jordan_block(n, 0.3 - 0.2j),
    "triangular": lambda n: np.triu(rg.random_dense(n, n)),
    "grcar": rg.grcar,
    "shift": lambda n: rg.weighted_shift([2.0] + [1.0] * (n - 1)),
    "zigzag": rg.zigzag_diagonal,
}


def _schur_test_points(a, rng, count):
    """count random points in a box around the spectrum; for a
    triangular A also every diagonal entry (exact hits) and, for a
    Jordan block, points 1e-4 to 1e-6 from its eigenvalue, where
    sigma_min underflows and inverse Lanczos overflows."""
    r = 1.2 * np.linalg.norm(a, 2)
    zs = [rng.uniform(-r, r, count) + 1j * rng.uniform(-r, r, count)]
    if not np.tril(a, -1).any():
        zs.append(np.diagonal(a)[:: max(1, a.shape[0] // 5)])
    if np.all(np.diagonal(a, 1) == 1.0) and not np.triu(a, 2).any():
        zs.append(a[0, 0] + np.array([1e-4, -1e-5j, 1e-6 + 1e-6j]))
    return rng.permutation(np.concatenate(zs))


def _assert_matches_svd(a, zs, vals):
    ref = _svd_sigma_min(a, zs)
    slack = a.shape[0] * np.finfo(float).eps * np.linalg.norm(a)
    assert np.all(np.abs(vals - ref) <= 1e-12 * ref + slack)
    hits = (zs[:, None] == np.diagonal(a)[None, :]).any(axis=1)
    if not np.tril(a, -1).any():
        assert np.all(vals[hits] == 0.0)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(sorted(_SCHUR_FAMILIES)),
    n=st.integers(48, 96),
    seed=st.integers(0, 2**20),
)
def test_schur_route_matches_svd(family, n, seed):
    a = _SCHUR_FAMILIES[family](n)
    zs = _schur_test_points(a, np.random.default_rng(seed), 64)
    _assert_matches_svd(a, zs, rg.sigma_min_batch(a, zs))


def _svd_batches(a, zs):
    """sigma_min_batch(a, zs) and the batch size of every np.linalg.svd call."""
    sizes = []
    real_svd = np.linalg.svd

    def recording(m, *args, **kwargs):
        sizes.append(1 if m.ndim == 2 else m.shape[0])
        return real_svd(m, *args, **kwargs)

    with mock.patch("numpy.linalg.svd", recording):
        vals = rg.sigma_min_batch(a, zs)
    return vals, sizes


def test_sigma_min_batch_dispatch():
    rng = np.random.default_rng(11)
    zs = rng.standard_normal(96) + 1j * rng.standard_normal(96)
    assert linalg._SCHUR_MIN_N == 48 and linalg._SCHUR_MIN_POINTS == 64
    # Schur route: no SVD at all
    a = rg.random_dense(64, 1)
    vals, sizes = _svd_batches(a, zs)
    assert sizes == []
    _assert_matches_svd(a, zs, vals)
    # a diagonal T takes the min |t_ii - z| shortcut, without Lanczos steps
    zigzag = rg.zigzag_diagonal(64)
    with mock.patch.object(linalg, "_inverse_lanczos", side_effect=AssertionError):
        _assert_matches_svd(zigzag, zs, rg.sigma_min_batch(zigzag, zs))
    # one point too few, or n one too small: the batched SVD, over two CPUs
    # in two slices of at least _SPLIT_MIN_ROWS rows (points x n) each
    with mock.patch.object(linalg, "_workers", lambda: 2):
        assert sorted(_svd_batches(a, zs[:63])[1]) == [31, 32]
        assert _svd_batches(rg.random_dense(47, 1), zs)[1] == [48, 48]
    # a diagonal A takes the shortcut at any n and batch size, a small
    # non-diagonal one the batched SVD
    with (
        mock.patch("scipy.linalg.lapack.zgees", side_effect=AssertionError),
        mock.patch.object(linalg, "_inverse_lanczos", side_effect=AssertionError),
    ):
        for n in (4, 10):
            small = rg.zigzag_diagonal(n)
            for count in (1, 63, 96):
                vals, sizes = _svd_batches(small, zs[:count])
                assert sizes == []
                _assert_matches_svd(small, zs[:count], vals)
        assert _svd_batches(rg.jordan_block(8, 0.0), zs)[1] == [96]
    # inside the unit disk around a Jordan eigenvalue inverse Lanczos
    # settles in a few steps, except where sigma_min underflows and the
    # iteration overflows: those three points are redone by the SVD
    jordan = rg.jordan_block(64, 0.5)
    inside = 0.5 + rng.uniform(0.3, 0.9, 93) * np.exp(2j * np.pi * rng.uniform(size=93))
    zs = np.concatenate((inside, 0.5 + np.array([1e-4, 1e-5j, -1e-6])))
    vals, sizes = _svd_batches(jordan, zs)
    assert sizes == [3]
    _assert_matches_svd(jordan, zs, vals)


def test_schur_failure_sends_every_point_to_the_svd():
    """When zgees reports info != 0 the Operator has no Schur form, and
    sigma_min_batch answers every point by the batched SVD, bitwise."""
    from scipy.linalg import lapack

    real_zgees = lapack.zgees

    def failing_zgees(*args, **kwargs):
        out = real_zgees(*args, **kwargs)
        return out if kwargs.get("lwork") == -1 else (*out[:-1], 1)

    a = rg.random_dense(48, 3)
    rng = np.random.default_rng(5)
    zs = 8.0 * (rng.uniform(-1.0, 1.0, 64) + 1j * rng.uniform(-1.0, 1.0, 64))
    with (
        mock.patch("scipy.linalg.lapack.zgees", failing_zgees),
        mock.patch.object(linalg, "_inverse_lanczos", side_effect=AssertionError),
    ):
        op = rg.Operator(a)
        assert op.schur is None
        vals = rg.sigma_min_batch(op, zs)
    assert vals.tobytes() == _svd_sigma_min(a, zs).tobytes()


def _jordan_dispatch_points():
    """The Jordan points of test_sigma_min_batch_dispatch, from the same draws:
    93 inside the unit disk around 0.5, then three where sigma_min underflows."""
    rng = np.random.default_rng(11)
    rng.standard_normal(96), rng.standard_normal(96)  # that test's first batch
    inside = 0.5 + rng.uniform(0.3, 0.9, 93) * np.exp(2j * np.pi * rng.uniform(size=93))
    return np.concatenate((inside, 0.5 + np.array([1e-4, 1e-5j, -1e-6])))


def test_inverse_lanczos_leaves_nan_where_it_gives_up():
    """Inverse Lanczos is a function of its chunk alone: it makes no SVD, stores 0
    at exact hits and NaN where it overflows, the three points next to the Jordan
    eigenvalue that the dispatch test sees the SVD answer; its other values match
    the SVD."""
    jordan = rg.jordan_block(64, 0.5)
    t, zs = rg.Operator(jordan).schur, _jordan_dispatch_points()
    with mock.patch.object(linalg, "_sigma_min_svd", side_effect=AssertionError):
        vals = linalg._inverse_lanczos(t, zs)
        assert linalg._inverse_lanczos(t, np.array([0.5, 2.0]))[0] == 0.0
    assert np.flatnonzero(np.isnan(vals)).tolist() == [93, 94, 95]
    _assert_matches_svd(jordan, zs[:93], vals[:93])


def test_sigma_min_batch_splits_the_points_lanczos_leaves():
    """The points inverse Lanczos gives up on join the split batched SVD: 91 of 96
    Gaussian points of scale 4 on jordan_block(64, 0.5) go to two CPUs in slices
    of 45 and 46, with values bitwise those of one CPU."""
    jordan = rg.Operator(rg.jordan_block(64, 0.5))
    rng = np.random.default_rng(0)
    zs = 4.0 * (rng.standard_normal(96) + 1j * rng.standard_normal(96))
    with mock.patch.object(linalg, "_workers", lambda: 1):
        one, sizes = _svd_batches(jordan, zs)
    assert sizes == [91]
    with mock.patch.object(linalg, "_workers", lambda: 2):
        two, sizes = _svd_batches(jordan, zs)
    assert sorted(sizes) == [45, 46]
    assert one.tobytes() == two.tobytes()
    _assert_matches_svd(jordan.matrix, zs, two)


@pytest.mark.parametrize("a", [rg.random_dense(64, 5), rg.jordan_block(64, 0.5)])
def test_sigma_min_batch_routes_do_not_depend_on_call_history(a):
    """A batch of 17 points (the batched SVD) and one of 96 (the Schur route)
    give bitwise the values they give on a new Operator after the other batch
    ran on it, with T factored beforehand or not: a cached T does not move a
    small batch onto the Schur route, and a small batch leaves no state."""
    rng = np.random.default_rng(3)
    batches = [4.0 * (rng.standard_normal(p) + 1j * rng.standard_normal(p)) for p in (17, 96)]
    fresh = [rg.sigma_min_batch(rg.Operator(a), zs).tobytes() for zs in batches]
    for factored in (False, True):
        for order in (0, 1), (1, 0):
            op = rg.Operator(a)
            if factored:
                assert op.schur is not None
            for k in order:
                assert rg.sigma_min_batch(op, batches[k]).tobytes() == fresh[k]


def test_matrix_dict_roundtrip():
    rng = np.random.default_rng(29)
    a = random_matrix(rng, 4)
    b = rg.matrix_from_dict(rg.matrix_to_dict(a))
    assert np.array_equal(a, b)
    # signed zeros survive
    a = np.array([[-0.0, complex(0.0, -0.0)], [complex(-0.0, -0.0), 1.0]])
    assert rg.matrix_from_dict(rg.matrix_to_dict(a)).tobytes() == a.tobytes()


def test_matrix_from_dict_rejects_malformed():
    good = rg.matrix_to_dict(np.eye(2))
    for bad in [
        [],
        {"n": 2},
        {"n": 2, "entries": [[1, 0]] * 4, "extra": 1},
        {"n": 0, "entries": []},
        {"n": True, "entries": [[1, 0]]},
        {"n": 2, "entries": [[1, 0]] * 3},
        {"n": 2, "entries": [[1, 0]] * 3 + [[1]]},
        {"n": 2, "entries": [[1, 0]] * 3 + [["x", 0]]},
        {"n": 2, "entries": [[1, 0]] * 3 + [[True, 0]]},
    ]:
        with pytest.raises(ValueError):
            rg.matrix_from_dict(bad)
    assert rg.matrix_from_dict(good).shape == (2, 2)


def test_save_load_matrix(tmp_path):
    rng = np.random.default_rng(31)
    a = random_matrix(rng, 3)
    path = tmp_path / "m.json"
    rg.save_matrix(str(path), a)
    assert np.array_equal(rg.load_matrix(str(path)), a)
    # deterministic bytes
    first = path.read_bytes()
    rg.save_matrix(str(path), a)
    assert path.read_bytes() == first
    # file is plain JSON
    data = json.loads(first)
    assert data["n"] == 3


def test_load_matrix_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{oops")
    with pytest.raises(ValueError):
        rg.load_matrix(str(path))


# --- the raise paths: each LAPACK or accuracy failure forced by a patch ---


def _failing(*_args, **_kwargs):
    raise np.linalg.LinAlgError("forced failure")


def test_svd_raises_on_non_convergence():
    with (
        mock.patch("numpy.linalg.svd", _failing),
        pytest.raises(rg.DecompositionError, match="SVD failed to converge: forced failure"),
    ):
        svd(np.eye(2))


def test_svd_raises_on_reconstruction_error():
    real_svd = np.linalg.svd

    def off_by_one(m, *args, **kwargs):
        u, s, vh = real_svd(m, *args, **kwargs)
        return u, s + 1.0, vh

    with (
        mock.patch("numpy.linalg.svd", off_by_one),
        pytest.raises(rg.DecompositionError, match=r"SVD reconstruction error .* exceeds 1\.0e-10"),
    ):
        svd(np.eye(2))


def test_eigenvalues_raises_on_lapack_failure():
    with (
        mock.patch("numpy.linalg.eigvals", _failing),
        pytest.raises(rg.DecompositionError, match="eigenvalue computation failed: forced failure"),
    ):
        rg.eigenvalues(np.eye(2))


def test_solver_keeps_no_copy_of_a():
    """A ShiftedSolver built from a writable array holds A - zI and its SVD,
    and no array equal to A."""
    a = rg.random_dense(6, 1)
    solver = rg.ShiftedSolver(a, 0.25)
    arrays = [v for v in vars(solver).values() if isinstance(v, np.ndarray)]
    assert arrays and not any(np.array_equal(v, a) for v in arrays)


def test_solve_nearby_raises_on_lu_failure(diag03):
    solver = rg.ShiftedSolver(diag03, 1.0 + 0j)
    with (
        mock.patch("numpy.linalg.solve", _failing),
        pytest.raises(rg.DecompositionError, match="batched LU solve failed: forced failure"),
    ):
        solver.solve_nearby([0.1, 0.2j], [1.0, 1.0])


def test_solve_nearby_checks_each_residual(diag03):
    solver = rg.ShiftedSolver(diag03, 1.0 + 0j)
    real_solve = np.linalg.solve

    def perturbed(m, b):
        return real_solve(m, b) + 1e-3

    with (
        mock.patch("numpy.linalg.solve", perturbed),
        pytest.raises(rg.DecompositionError, match=r"shifted solve residual .* exceeds its bound"),
    ):
        solver.solve_nearby([0.1, 0.2j], [1.0, 1.0])


def _svd_threads(a, zs):
    """sigma_min_batch(a, zs) and the name of the thread of every SVD route call."""
    names, real = [], linalg._sigma_min_svd

    def recording(a, zs):
        names.append(threading.current_thread().name)
        return real(a, zs)

    with mock.patch.object(linalg, "_sigma_min_svd", recording):
        return rg.sigma_min_batch(a, zs), names


def _split_points(a, seed: int, count: int = 0) -> np.ndarray:
    """count points (default: above the two-CPU split floor at every n), with
    exact hits of a's first eigenvalue spread over the slices."""
    rng = np.random.default_rng(seed)
    count = count or 2 * linalg._SPLIT_MIN_ROWS + 37
    zs = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    zs[::97] = rg.eigenvalues(a)[0]
    return zs


@pytest.mark.parametrize(
    "a", [rg.jordan_block(4, 0.5), rg.jordan_block(8, 0.0), rg.random_dense(32, 2)]
)
def test_split_sigma_min_batch_is_bitwise_one_thread(monkeypatch, a):
    """A batch at or above the split floor on the SVD route runs in one
    slice per CPU on the pool's threads, also when _CHUNK_BYTES cuts it
    into many slices, and its values equal the one-thread loop's bit for bit."""
    n, zs = a.shape[0], _split_points(a, a.shape[0])
    monkeypatch.setattr(linalg, "_workers", lambda: 1)
    serial, names = _svd_threads(a, zs)
    assert names == [threading.current_thread().name]
    monkeypatch.setattr(linalg, "_workers", lambda: 2)
    split, names = _svd_threads(a, zs)
    assert np.array_equal(split, serial) and len(names) == 2
    assert all(name.startswith("resgrow") for name in names)
    monkeypatch.setattr(linalg, "_CHUNK_BYTES", 2 * 7 * 16 * n * n)
    split, names = _svd_threads(a, zs)
    assert np.array_equal(split, serial) and len(names) == -(-zs.shape[0] // 7)
    if n == 8:  # the Jordan block's exact hits
        assert np.all(split[::97] == 0.0)


def test_sigma_min_batch_below_the_floor_starts_no_thread(monkeypatch):
    """A batch below the split floor, fewer than _SPLIT_MIN_ROWS rows (points
    x n) per CPU, and a large batch on any route but the SVD, runs on the
    calling thread and never asks for the pool."""
    monkeypatch.setattr(linalg, "_workers", lambda: 2)
    monkeypatch.setattr(linalg, "_pool", mock.Mock(side_effect=AssertionError))
    threads = threading.active_count()
    a = rg.jordan_block(8, 0.0)
    zs = _split_points(a, 1)
    below = 2 * linalg._SPLIT_MIN_ROWS // 8 - 1
    vals, names = _svd_threads(a, zs[:below])
    assert names == [threading.current_thread().name]
    _assert_matches_svd(a, zs[:below], vals)
    # the min |a_ii - z| formula, Weyl on a normal T and inverse Lanczos
    unitary = rg.weighted_shift([1.0] * 48)
    for other in (rg.zigzag_diagonal(10), unitary, rg.random_dense(48, 3)):
        assert _svd_threads(other, zs)[1] == []
    assert threading.active_count() == threads


def test_split_floor_counts_rows(monkeypatch):
    """At n = 64 a growth check's 17-point segment, 1,088 rows, splits over two
    CPUs into two slices with the one-thread values; 15 points, 960 rows,
    stay on the calling thread."""
    a = rg.random_dense(64, 5)
    zs = _split_points(a, 5, count=17)
    monkeypatch.setattr(linalg, "_workers", lambda: 1)
    serial, _ = _svd_threads(a, zs)
    monkeypatch.setattr(linalg, "_workers", lambda: 2)
    split, names = _svd_threads(a, zs)
    assert np.array_equal(split, serial) and len(names) == 2
    assert all(name.startswith("resgrow") for name in names)
    vals, names = _svd_threads(a, zs[:15])
    assert np.array_equal(vals, serial[:15]) and names == [threading.current_thread().name]


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs CPU affinity and two CPUs",
)
def test_pool_workers_are_pinned_one_per_cpu():
    """Each worker of the pool runs on one CPU of the process, no two on the
    same; the calling thread keeps the CPUs it had."""
    caller = os.sched_getaffinity(0)
    workers = linalg._workers()
    linalg._pool.cache_clear()
    # each task waits for all the others, so every worker runs one
    barrier = threading.Barrier(workers, timeout=30)

    def affinity(_):
        barrier.wait()
        return os.sched_getaffinity(0)

    cpus = list(linalg._pool().map(affinity, range(workers)))
    assert all(len(one) == 1 for one in cpus)
    assert set().union(*cpus) == caller
    assert os.sched_getaffinity(0) == caller


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_pinning_failure_leaves_the_pool_working(monkeypatch):
    """Where the OS refuses to pin a worker, the worker runs unpinned: the pool
    does not break, and split batches return the one-thread values."""
    a = rg.jordan_block(8, 0.0)
    zs = _split_points(a, 6)
    monkeypatch.setattr(linalg, "_workers", lambda: 1)
    expected = rg.sigma_min_batch(a, zs)

    def refuse(pid, cpus):
        raise OSError(22, "Invalid argument")

    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    monkeypatch.setattr(linalg, "_workers", lambda: 2)
    linalg._pool.cache_clear()
    try:
        for _ in range(3):
            split, names = _svd_threads(a, zs)
            assert np.array_equal(split, expected) and len(names) == 2
    finally:
        linalg._pool.cache_clear()


def test_split_sigma_min_batch_raises_like_one_thread(monkeypatch):
    """An SVD failure in the second slice raises the DecompositionError of
    the one-thread loop, naming the same z; with a failure in each slice
    both name the first."""
    a = rg.jordan_block(4, 0.0)
    zs = _split_points(a, 2)
    real_svd = np.linalg.svd

    def errors(bad):
        shifted = [a - zs[k] * np.eye(4) for k in bad]

        def fails(m, *args, **kwargs):
            if any((m == b).all(axis=(-2, -1)).any() for b in shifted):
                _failing()
            return real_svd(m, *args, **kwargs)

        messages = []
        for workers in (1, 2):
            monkeypatch.setattr(linalg, "_workers", lambda: workers)
            with mock.patch("numpy.linalg.svd", fails), pytest.raises(rg.DecompositionError) as err:
                rg.sigma_min_batch(a, zs)
            messages.append(str(err.value))
        return messages

    last = zs.shape[0] - 3
    assert errors([last]) == [f"SVD failed to converge at z={zs[last]}: forced failure"] * 2
    assert errors([last, 5]) == [f"SVD failed to converge at z={zs[5]}: forced failure"] * 2


def test_split_batches_from_many_threads(monkeypatch):
    """Six threads, more than the pool's, send split batches at once, the
    first of them racing to make the pool; each gets the one-thread values."""
    a = rg.jordan_block(4, 0.5)
    zs = _split_points(a, 4)
    monkeypatch.setattr(linalg, "_workers", lambda: 1)
    expected = rg.sigma_min_batch(a, zs)
    monkeypatch.setattr(linalg, "_workers", lambda: 2)
    linalg._pool.cache_clear()
    results = [None] * 6

    def call(k):
        for _ in range(5):
            results[k] = rg.sigma_min_batch(a, zs)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call, args=(k,)) for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(np.array_equal(values, expected) for values in results)


def _send_sigma_min(conn, a, zs) -> None:
    conn.send(rg.sigma_min_batch(a, zs))
    conn.close()


@pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no fork on this platform")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_forked_child_makes_its_own_pool(monkeypatch):
    """A child forked after the pool exists has none of its threads; its
    own split batch must make a new pool, not wait on the parent's."""
    monkeypatch.setattr(linalg, "_workers", lambda: 2)
    a = rg.jordan_block(8, 0.0)
    zs = _split_points(a, 3, count=118 * 132)
    expected = rg.sigma_min_batch(a, zs)
    assert linalg._pool.cache_info().currsize == 1
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_sigma_min, args=(send, a, zs))
    child.start()
    try:
        assert receive.poll(60), "the forked child hung on its parent's thread pool"
        assert np.array_equal(receive.recv(), expected)
    finally:
        child.join(5)
        if child.is_alive():
            child.kill()
            child.join()


def test_sigma_min_svd_retries_one_matrix_at_a_time():
    """A batched SVD failure is retried matrix by matrix: the shifts that
    converge get the batched values, and a shift that fails alone raises
    DecompositionError naming its z."""
    a = rg.random_dense(5, 3)
    zs = np.array([0.5, 1j, -1.0 + 0.25j, 2.0])
    expected = rg.sigma_min_batch(a, zs)
    real_svd = np.linalg.svd
    bad = a - zs[2] * np.eye(5)
    singles = []

    def stack_fails(m, *args, **kwargs):
        if m.ndim == 3:
            _failing()
        singles.append(m)
        return real_svd(m, *args, **kwargs)

    with mock.patch("numpy.linalg.svd", stack_fails):
        vals = rg.sigma_min_batch(a, zs)
    assert len(singles) == zs.shape[0]
    assert np.array_equal(vals, expected)

    def bad_one_fails(m, *args, **kwargs):
        if m.ndim == 3 or np.array_equal(m, bad):
            _failing()
        return real_svd(m, *args, **kwargs)

    with (
        mock.patch("numpy.linalg.svd", bad_one_fails),
        pytest.raises(rg.DecompositionError) as err,
    ):
        rg.sigma_min_batch(a, zs)
    assert str(err.value) == f"SVD failed to converge at z={zs[2]}: forced failure"


def test_guard_svd_failure_names_the_step_point():
    """When the Lipschitz guard of ShiftedSolver.solve_nearby finds its batched
    SVD and one step's matrix failing, the error names that step point z + w_k
    (jordan_block(16, 0) at z = 0.3, the step 0.07 along theta0 = pi), not w_k."""
    a, z = rg.jordan_block(16, 0.0), 0.3
    ws = np.array([0.14, 0.07]) * np.exp(-1j * np.pi)
    bad = (a - z * np.eye(16)) - ws[1] * np.eye(16)
    real_svd = np.linalg.svd

    def bad_one_fails(m, *args, **kwargs):
        if m.ndim == 3 or np.array_equal(m, bad):
            _failing()
        return real_svd(m, *args, **kwargs)

    with (
        mock.patch("numpy.linalg.svd", bad_one_fails),
        pytest.raises(rg.DecompositionError) as err,
    ):
        rg.taylor_remainder_check(a, z, np.eye(16)[0], np.pi, (0.14, 0.07))
    assert str(err.value) == f"SVD failed to converge at z={z + ws[1]}: forced failure"
