import dataclasses
from contextlib import suppress
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import resgrow as rg
from resgrow import linalg
from resgrow.linalg import norms_from_sigma
from resgrow.pseudo import _floor_holds, _line_search


def test_grid_values_match_distance_for_normal(diag03):
    grid = rg.grid_sigma_min(diag03, -1.0, 4.0, -1.0, 1.0, 25, 10)
    eigs = np.array([0.0 + 0j, 3.0 + 0j])
    for i, re in enumerate(grid.centers_re):
        for j, im in enumerate(grid.centers_im):
            d = np.min(np.abs(eigs - (re + 1j * im)))
            assert grid.values[i, j] == pytest.approx(d, rel=1e-12, abs=1e-14)


def test_grid_known_values(diag03, zigzag2):
    def value_at(a, z, lo_re, hi_re, lo_im, hi_im, nx, ny):
        g = rg.grid_sigma_min(a, lo_re, hi_re, lo_im, hi_im, nx, ny)
        ii = int(np.argmin(np.abs(g.centers_re - z.real)))
        jj = int(np.argmin(np.abs(g.centers_im - z.imag)))
        assert g.centers_re[ii] == z.real and g.centers_im[jj] == z.imag
        return g.values[ii, jj]

    # grids arranged so a cell center lands exactly on the probe point
    # 1x1 zero matrix: sigma_min at z is plain |z|
    assert value_at(np.zeros((1, 1)), 0.5 + 0j, -1.0, 1.0, -1.0, 1.0, 2, 3) == pytest.approx(0.5)
    assert value_at(diag03, 1.0 + 0j, 0.0, 4.0, -1.0, 1.0, 2, 3) == pytest.approx(1.0)
    assert value_at(zigzag2, 1.5 + 0j, 0.0, 2.0, -1.0, 1.0, 2, 3) == pytest.approx(1.0)


def test_grid_centers():
    grid = rg.grid_sigma_min(np.eye(2), 0.0, 1.0, -1.0, 1.0, 4, 2)
    assert np.allclose(grid.centers_re, [0.125, 0.375, 0.625, 0.875])
    assert np.allclose(grid.centers_im, [-0.5, 0.5])


def test_grid_csv_layout(diag03):
    grid = rg.grid_sigma_min(diag03, 0.0, 1.0, 0.0, 1.0, 2, 3)
    lines = grid.to_csv().splitlines()
    assert lines[0] == "re,im,sigma_min"
    assert len(lines) == 1 + 6
    # row-major: the real coordinate changes slowest
    first = [line.split(",")[0] for line in lines[1:]]
    assert first == ["0.25"] * 3 + ["0.75"] * 3


def test_grid_validation(diag03):
    with pytest.raises(ValueError):
        rg.grid_sigma_min(diag03, 0.0, 1.0, 0.0, 1.0, 1, 5)
    with pytest.raises(ValueError):
        rg.grid_sigma_min(diag03, 1.0, 0.0, 0.0, 1.0, 4, 4)


@pytest.fixture(scope="module")
def diag_grid(diag03):
    return rg.grid_sigma_min(diag03, -1.5, 4.5, -1.5, 1.5, 120, 60)


def test_components_split_and_merge(diag_grid):
    # disjoint disks around 0 and 3 at small epsilon, one blob at large
    assert rg.components(diag_grid, 0.8).count == 2
    assert rg.components(diag_grid, 1.6).count == 1
    assert rg.components(diag_grid, 0.5).count == 2
    assert rg.components(diag_grid, 2.0).count == 1
    labeling = rg.components(diag_grid, 0.8)
    assert labeling.labels.max() == 2
    assert labeling.labels[diag_grid.values >= 0.8].max(initial=0) == 0


def test_components_empty(diag_grid):
    shifted = rg.grid_sigma_min(np.diag([10.0 + 0j]), -1.0, 1.0, -1.0, 1.0, 8, 8)
    assert rg.components(shifted, 0.5).count == 0


def test_components_monotone_nesting(diag_grid):
    small = diag_grid.values < 0.5
    large = diag_grid.values < 1.2
    assert np.all(large[small])


def test_component_count_bounded_by_matrix_size(diag03, shift4, zigzag4):
    rng = np.random.default_rng(59)
    mats = [diag03, shift4, zigzag4, rg.random_dense(6, 11)]
    for a in mats:
        lo, hi = -4.0, 4.0
        grid = rg.grid_sigma_min(a, lo, hi, lo, hi, 60, 60)
        for eps in [0.05, 0.2, 0.7, 1.5]:
            assert rg.components(grid, eps).count <= a.shape[0]


def test_eigenvalue_cells_are_inside(zigzag4):
    grid = rg.grid_sigma_min(zigzag4, -0.5, 5.5, -2.5, 2.5, 100, 100)
    cell = max(6.0 / 100, 5.0 / 100)
    for lam in rg.eigenvalues(zigzag4):
        i = int(np.argmin(np.abs(grid.centers_re - lam.real)))
        j = int(np.argmin(np.abs(grid.centers_im - lam.imag)))
        assert grid.values[i, j] < cell


def test_connectivity_order_counts_enclosed_gaps():
    # three aligned disks of radius 1.08 at pairwise distance 2 pinch
    # off two pockets; the outside region makes neither more nor fewer
    z3 = rg.zigzag_diagonal(3)
    grid = rg.grid_sigma_min(z3, -0.5, 4.5, -2.5, 2.5, 120, 120)
    assert rg.components(grid, 1.08).count == 1
    assert rg.connectivity_order(grid, 1.08) == 2


def test_connectivity_order_simple_cases(diag_grid):
    # two disjoint disks: complement is a single region
    assert rg.connectivity_order(diag_grid, 0.8) == 1
    with pytest.raises(ValueError):
        rg.connectivity_order(diag_grid, 0.0)


def _reference_labels(mask, connect8):
    """Plain flood fill: components of mask numbered in scan order."""
    nx, ny = mask.shape
    steps = [
        (di, dj)
        for di in (-1, 0, 1)
        for dj in (-1, 0, 1)
        if (di or dj) and (connect8 or not (di and dj))
    ]
    labels = np.zeros(mask.shape, dtype=np.int32)
    count = 0
    for i in range(nx):
        for j in range(ny):
            if mask[i, j] and not labels[i, j]:
                count += 1
                labels[i, j] = count
                todo = [(i, j)]
                while todo:
                    ci, cj = todo.pop()
                    for di, dj in steps:
                        ni, nj = ci + di, cj + dj
                        if 0 <= ni < nx and 0 <= nj < ny and mask[ni, nj] and not labels[ni, nj]:
                            labels[ni, nj] = count
                            todo.append((ni, nj))
    return labels, count


def _mask_grid(mask):
    """A grid whose sublevel set at epsilon 0.5 is exactly mask."""
    nx, ny = mask.shape
    return rg.PseudoGrid(0.0, 1.0, 0.0, 1.0, nx, ny, np.where(mask, 0.0, 1.0))


def _checkerboard(nx, ny):
    return (np.add.outer(np.arange(nx), np.arange(ny)) % 2).astype(bool)


_sides = st.integers(1, 12)
_masks = st.one_of(
    arrays(bool, st.tuples(_sides, _sides)),
    arrays(bool, st.tuples(st.just(2), _sides)),
    st.tuples(_sides, _sides).map(lambda shape: _checkerboard(*shape)),
    st.tuples(_sides, _sides, st.booleans()).map(lambda t: np.full(t[:2], t[2])),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mask=_masks)
@example(mask=_checkerboard(5, 6))
@example(mask=np.ones((3, 4), dtype=bool))
@example(mask=np.zeros((4, 3), dtype=bool))
@example(mask=np.array([[1, 0, 1, 1, 0], [0, 1, 0, 1, 1]], dtype=bool))
def test_labeling_matches_flood_fill(mask):
    """Labels, count and dtype match a flood fill on the mask; the
    complement count matches an 8-connected flood fill of ~mask."""
    grid = _mask_grid(mask)
    labeling = rg.components(grid, 0.5)
    labels, count = _reference_labels(mask, connect8=False)
    assert labeling.count == count
    assert labeling.labels.dtype == labels.dtype
    assert np.array_equal(labeling.labels, labels)
    assert rg.connectivity_order(grid, 0.5) == _reference_labels(~mask, connect8=True)[1]


def test_grid_metadata(diag_grid):
    meta = rg.grid_metadata(diag_grid, 0.8)
    assert meta == {
        "bounds": [-1.5, 4.5, -1.5, 1.5],
        "nx": 120,
        "ny": 60,
        "epsilon": 0.8,
        "components": 2,
        "complement_components": 1,
    }


def test_find_path_reaches_nearest_eigenvalue(diag03):
    path, cert = rg.find_path(diag03, 1.25, 1.0 + 0j)
    assert path.vertices[0] == 1.0 + 0j
    assert path.eigenvalue == 0.0 + 0j
    assert path.vertices[-1] == path.eigenvalue
    assert cert.valid
    assert cert.failures == ()
    assert cert.min_f_on_path > 1.0 / 1.25
    assert all(b > a for a, b in zip(cert.vertex_norms, cert.vertex_norms[1:]))
    # delta is half the starting slack
    assert path.delta == pytest.approx(0.5 * (1.0 - 1.0 / 1.25))


def test_find_path_normal_short_route(diag03, zigzag2):
    # from midway between a close and a far eigenvalue, the whole route
    # stays above the starting norm
    path, cert = rg.find_path(diag03, 0.75, 0.5 + 0j)
    assert path.eigenvalue == 0.0 + 0j
    assert cert.valid
    assert cert.min_f_on_path >= 2.0 > 1.0 / 0.75

    path, cert = rg.find_path(zigzag2, 1.05, 1.5 + 0j)
    assert cert.valid
    assert path.eigenvalue in set(rg.eigenvalues(zigzag2))


def test_find_path_other_basin(diag03):
    path, cert = rg.find_path(diag03, 1.25, 2.2 + 0.1j)
    assert path.eigenvalue == 3.0 + 0j
    assert cert.valid


def test_find_path_nonnormal(zigzag4):
    z = 2.0 - 2.0j
    eps = 1.3 / rg.resolvent_norm(zigzag4, z)
    path, cert = rg.find_path(zigzag4, eps, z)
    assert cert.valid
    assert path.eigenvalue in set(rg.eigenvalues(zigzag4))
    assert cert.endpoint_distance < 0.5 * eps


def test_find_path_from_local_min(shift4):
    # the start vertex is a second-order minimum: the escape fan must
    # still find ascent directions
    eps = 1.3 / 2.0
    path, cert = rg.find_path(shift4, eps, 0j)
    assert cert.valid
    assert abs(path.eigenvalue) == pytest.approx(2.0 ** (-1.0 / 4.0))


@pytest.mark.parametrize("weights, vertices", [((2, 1), 9), ((3, 1, 1, 1, 1, 1), 14)])
def test_find_path_past_saddle(weights, vertices):
    # from z = 0.05i the analyzed direction zig-zags across the imaginary
    # axis toward a saddle until it admits no step; the escape fan then
    # takes over
    a = rg.weighted_shift(weights)
    z = 0.05j
    path, cert = rg.find_path(a, 1.2 / rg.resolvent_norm(a, z), z)
    assert cert.valid
    assert path.eigenvalue in set(rg.eigenvalues(a))
    assert len(path.vertices) == vertices


@pytest.mark.parametrize("n", [8, 16, 24, 32])
def test_find_path_on_grcar(n):
    """Searches on the non-normal Grcar matrix end at a computed eigenvalue
    with a valid certificate."""
    a = rg.Operator(rg.grcar(n))
    for z in (0.9 + 1.2j, 0.5 - 1j, 1.5 + 0.3j, 2.5 + 1.5j, -0.3 + 0.5j):
        path, cert = rg.find_path(a, 1.3 * rg.sigma_min_batch(a, [z])[0], z)
        assert cert.valid, (z, cert.failures)
        assert path.vertices[-1] == path.eigenvalue
        assert path.eigenvalue in set(a.eigenvalues)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 12, 16, 24])
def test_find_path_on_weighted_shifts(n):
    """Searches on non-normal weighted shifts, from points at 0.05, 0.2 and 0.9
    of the spectral radius, end at a computed eigenvalue with a valid
    certificate."""
    a = rg.Operator(rg.weighted_shift(np.random.default_rng(n).uniform(1.0, 3.0, n)))
    rho = float(np.max(np.abs(a.eigenvalues)))
    for r in (0.05, 0.2, 0.9):
        for k in range(5):
            z = r * rho * np.exp(1j * (2.0 * np.pi * k / 5 + 0.3))
            path, cert = rg.find_path(a, 1.3 * rg.sigma_min_batch(a, [z])[0], z)
            assert cert.valid, (z, cert.failures)
            assert path.vertices[-1] == path.eigenvalue
            assert path.eigenvalue in set(a.eigenvalues)


def _saddle_query():
    a = rg.weighted_shift([2, 1])
    return a, 0.05j, 1.2 / rg.resolvent_norm(a, 0.05j)


def _jordan_query():
    a, z = rg.jordan_block(16, 0.5), 0.536 - 0.176j
    return a, z, 1.3 * float(np.linalg.svd(a - z * np.eye(16), compute_uv=False)[-1])


@pytest.mark.parametrize("query", [_saddle_query, _jordan_query], ids=["saddle", "jordan"])
def test_find_path_evaluates_each_step_once(query):
    # the saddle query above rejects many steps before the fan takes over,
    # and the Jordan query of the path suite steps along a fan direction
    # through its own probe point; the search may succeed or fail, but no
    # call, the certificate's included, is made twice, and on these queries
    # the search evaluates no point twice: not a vertex, an endpoint, a
    # floor sample or a fan probe
    a, z, eps = query()
    calls = []
    search_calls = None

    def recording(a_, zs):
        calls.append(tuple(np.asarray(zs, dtype=complex).ravel()))
        return rg.sigma_min_batch(a_, zs)

    def certifying(*args, **kwargs):
        nonlocal search_calls
        search_calls = len(calls)
        return rg.certify_path(*args, **kwargs)

    with (
        mock.patch("resgrow.pseudo.sigma_min_batch", recording),
        mock.patch("resgrow.pseudo.certify_path", certifying),
        suppress(rg.SearchError),
    ):
        rg.find_path(a, eps, z)
    assert len(set(calls)) == len(calls)
    search = calls if search_calls is None else calls[:search_calls]
    points = [p for zs in search for p in zs]
    assert len(set(points)) == len(points)


def _reference_line_search(a, x, direction, fx, cap, floor, cfg):
    """Halving x ladder search: every halving rescans the ladder from cap.
    It evaluates every interior sample of each step it checks."""
    eta = 1e-9 * fx
    ts = np.linspace(0.0, 1.0, cfg.s_seg)[1:-1]
    t0 = 0.25 * cap
    for _ in range(cfg.max_halvings + 1):
        ladder = []
        t = t0
        while t < cap:
            ladder.append(t)
            t *= 2.0
        ladder.append(cap)
        for t in reversed(ladder):
            f_end = float(norms_from_sigma(rg.sigma_min_batch(a, [x + t * direction]))[0])
            if not f_end > fx + eta:
                continue
            seg = x + (ts * t) * direction
            if bool(np.all(norms_from_sigma(rg.sigma_min_batch(a, seg)) >= floor)):
                return t, f_end
        t0 *= 0.5
    return None


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 6),
    seed=st.integers(0, 2**20),
    turn=st.floats(-2.0, 2.0),
    cap_frac=st.floats(0.01, 4.0),
    floor_frac=st.floats(0.5, 1.0),
    max_halvings=st.integers(0, 8),
    s_seg=st.integers(2, 17),
)
# steps found 5, 8 and 9 halvings below the cap, the last at the bottom of its scan
@example(n=1, seed=485742, turn=1.54, cap_frac=1.27, floor_frac=0.51, max_halvings=5, s_seg=15)
@example(n=6, seed=284547, turn=1.57, cap_frac=0.48, floor_frac=0.74, max_halvings=6, s_seg=16)
@example(n=1, seed=15177, turn=-1.57, cap_frac=0.72, floor_frac=0.99, max_halvings=7, s_seg=15)
# s_seg = 2 leaves no interior samples: the floor check has nothing to evaluate
@example(n=2, seed=1, turn=0.0, cap_frac=0.5, floor_frac=0.9, max_halvings=3, s_seg=2)
# the floor is the vertex norm; the vertex itself is no sample, though its
# sigma_min without singular vectors puts its norm an ulp below the floor
@example(n=2, seed=2, turn=0.0, cap_frac=1.0, floor_frac=1.0, max_halvings=0, s_seg=2)
def test_line_search_matches_ladder(n, seed, turn, cap_frac, floor_frac, max_halvings, s_seg):
    """The one-pass step scan returns exactly the ladder search's step.

    The direction is the analyzed ascent direction turned by up to 2
    radians and the cap runs up to four times the spectral distance, so
    steps are found at several depths of the scan, and sometimes none.
    """
    op = rg.Operator(rg.random_dense(n, seed))
    rng = np.random.default_rng(seed)
    point = rg.analyze_point(op, complex(*rng.standard_normal(2)))
    direction = complex(np.exp(1j * (turn - (point.theta0 or 0.0))))
    cfg = rg.DEFAULT_CONFIG.replace(max_halvings=max_halvings, s_seg=s_seg)
    cap, floor = cap_frac * point.spectral_distance, floor_frac * point.norm
    sx = rg.sigma_min_batch(op, [point.z])[0]
    found = _line_search(op, point.z, direction, sx, cap, floor, cfg)
    if found is not None:
        found = found[0], float(norms_from_sigma(found[1]))
    fx = float(norms_from_sigma(sx))
    assert found == _reference_line_search(op, point.z, direction, fx, cap, floor, cfg)


_FLOOR_FAMILIES = {
    "random_dense": lambda n, rng: rg.random_dense(n, int(rng.integers(2**20))),
    "jordan": lambda n, rng: rg.jordan_block(n, complex(*rng.uniform(-1.0, 1.0, 2))),
    "shift": lambda n, rng: rg.weighted_shift(rng.uniform(1.0, 3.0, n)),
    "grcar": lambda n, rng: rg.grcar(n),
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(sorted(_FLOOR_FAMILIES)),
    n=st.integers(2, 12),
    seed=st.integers(0, 2**20),
    turn=st.floats(-2.0, 2.0),
    cap_frac=st.floats(0.05, 4.0),
    floor_exp=st.floats(-0.1, 0.1),
    s_seg=st.integers(2, 40),
)
# a floor equal to the norm at the vertex or at the lowest sample of the cap step
@example(family="shift", n=3, seed=7, turn=0.5, cap_frac=2.0, floor_exp=0.0, s_seg=33)
def test_floor_check_matches_full_evaluation(family, n, seed, turn, cap_frac, floor_exp, s_seg):
    """Every floor check gives the verdict of evaluating all its samples,
    though it skips those the 1-Lipschitz bound decides, and the line
    search takes the step of the ladder search, which evaluates them all.

    The query lies 0.2 to 1.5 from a random eigenvalue, the direction is
    the analyzed ascent turned by up to 2 radians, and the floor is within
    10% of the lowest norm at the vertex and the cap step's samples, so
    about two floor checks in three fail and many are near ties.
    """
    rng = np.random.default_rng(seed)
    op = rg.Operator(_FLOOR_FAMILIES[family](n, rng))
    lam = op.eigenvalues[rng.integers(n)]
    z = complex(lam + rng.uniform(0.2, 1.5) * np.exp(2j * np.pi * rng.uniform()))
    point = rg.analyze_point(op, z)
    direction = complex(np.exp(1j * (turn - (point.theta0 or 0.0))))
    cfg = rg.DEFAULT_CONFIG.replace(s_seg=s_seg)
    cap = cap_frac * point.spectral_distance
    ts = np.linspace(0.0, 1.0, s_seg)[1:-1]
    sigmas = rg.sigma_min_batch(op, np.concatenate(([z], z + (ts * cap) * direction)))
    floor = float(norms_from_sigma(sigmas.max())) * np.exp(floor_exp)
    verdicts = []

    def checked(op_, zs, known, sigmas_, floor_):
        full = bool(np.all(norms_from_sigma(rg.sigma_min_batch(op_, zs)) >= floor_))
        verdicts.append((_floor_holds(op_, zs, known, sigmas_, floor_), full))
        return verdicts[-1][0]

    with mock.patch("resgrow.pseudo._floor_holds", checked):
        found = _line_search(op, z, direction, sigmas[0], cap, floor, cfg)
    assert all(got == full for got, full in verdicts)
    if found is not None:
        found = found[0], float(norms_from_sigma(found[1]))
    fx = float(norms_from_sigma(sigmas[0]))
    assert found == _reference_line_search(op, z, direction, fx, cap, floor, cfg)


def test_find_path_domain_and_validation(diag03):
    with pytest.raises(rg.DomainError):
        rg.find_path(diag03, 0.9, 1.0 + 0j)
    # f(1) = 1 is far below the required 1/0.1
    with pytest.raises(rg.DomainError):
        rg.find_path(diag03, 0.1, 1.0 + 0j)
    with pytest.raises(ValueError):
        rg.find_path(diag03, -1.0, 1.0 + 0j)


def test_find_path_iteration_limit(diag03):
    cfg = rg.DEFAULT_CONFIG.replace(max_steps=1)
    with pytest.raises(rg.SearchError) as err:
        rg.find_path(diag03, 1.25, 1.0 + 0j, cfg)
    assert err.value.reason == "iteration-limit"
    assert err.value.vertices[0] == 1.0 + 0j
    assert len(err.value.vertices) == 2
    assert err.value.suspected_local_min is False


def test_find_path_step_failure(shift4, diag03):
    """When no direction admits a step, the search stops with the partial
    path and says whether its last vertex is a local minimum."""
    assert rg.analyze_point(shift4, 0j).case is rg.GrowthCase.LOCAL_MIN
    assert rg.analyze_point(diag03, 1.0 + 0j).case is rg.GrowthCase.LINEAR
    with mock.patch("resgrow.pseudo._line_search", return_value=None):
        with pytest.raises(rg.SearchError) as at_min:
            rg.find_path(shift4, 1.3 / 2.0, 0j)
        with pytest.raises(rg.SearchError) as at_linear:
            rg.find_path(diag03, 1.25, 1.0 + 0j)
    for err, z in ((at_min, 0j), (at_linear, 1.0 + 0j)):
        assert err.value.reason == "step-failure"
        assert err.value.vertices == (z,)
    assert at_min.value.suspected_local_min is True
    assert at_linear.value.suspected_local_min is False


@pytest.mark.parametrize(
    "a, epsilon, z",
    [(np.diag([0j, 3 + 0j]), 1.0, 0j), (rg.jordan_block(3, 0.5), 0.5, 0.5 + 0j)],
    ids=["diagonal", "jordan"],
)
def test_find_path_from_an_exact_eigenvalue(a, epsilon, z):
    """At an exact eigenvalue f(z) = delta = inf, and the zero-length path
    is certified rather than failed on the margin inf - inf."""
    path, cert = rg.find_path(a, epsilon, z)
    assert path.vertices == (z, z) and path.delta == np.inf
    assert cert.valid, cert.failures
    assert cert.min_f_on_path == np.inf


def test_certify_rejects_bad_paths(diag03):
    # flat vertex norms
    bad = rg.PolyPath(
        vertices=(1.0 + 0j, 2.0 + 0j, 0.0 + 0j),
        eigenvalue=0.0 + 0j,
        epsilon=3.0,
        delta=0.2,
    )
    cert = rg.certify_path(diag03, bad)
    assert not cert.valid
    assert "vertex_norms_not_increasing" in cert.failures

    far = rg.PolyPath(
        vertices=(10.0 + 0j, 11.0 + 0j),
        eigenvalue=11.0 + 0j,
        epsilon=1.0,
        delta=0.1,
    )
    cert = rg.certify_path(diag03, far)
    assert cert.failures == ("min_f_margin", "endpoint_not_eigenvalue")

    # a valid path to 0 that claims the other eigenvalue, 3
    wrong = rg.PolyPath((0.5 + 0j, 0j), 3 + 0j, 1.25, 0.0)
    cert = rg.certify_path(diag03, wrong)
    assert cert.failures == ("endpoint_not_eigenvalue",)
    assert rg.certify_path(diag03, dataclasses.replace(wrong, eigenvalue=0j)).valid


def test_certify_single_vertex(diag03):
    trivial = rg.PolyPath(
        vertices=(0.0 + 0j,), eigenvalue=0.0 + 0j, epsilon=2.0, delta=0.0
    )
    cert = rg.certify_path(diag03, trivial)
    assert cert.valid
    assert cert.endpoint_distance == 0.0
    assert cert.min_f_on_path == np.inf
    # sigma(1) = 1 ties s_req = 1/epsilon, so 1 lies outside the open set
    # sigma_min < s_req, and a hair larger epsilon puts it inside
    outside = rg.PolyPath((1.0,), 1.0, 1.0, 1e12)
    assert rg.certify_path(diag03, outside).failures == ("endpoint_not_eigenvalue",)
    assert rg.certify_path(diag03, dataclasses.replace(outside, epsilon=1.0000001)).valid


def test_certify_finds_dip_between_samples():
    # f = 1/min(|z|, |z - 1|) dips to 2.0 at z = 0.5 on the first segment,
    # below the required floor 1 + (5 - 1.996 - 1)/2 = 2.002; 129 equispaced
    # samples of that segment all miss the dip
    path = rg.PolyPath(vertices=(0.2, 0.9, 1.0), eigenvalue=1.0, epsilon=1.0, delta=1.996)
    cert = rg.certify_path(np.diag([0.0 + 0j, 1.0 + 0j]), path)
    assert not cert.valid
    assert cert.failures == ("min_f_margin",)
    assert cert.min_f_on_path < 2.002


def test_certify_residual_endpoint():
    # the computed eigenvalues of J = jordan_block(16, 0) are all 0, and
    # neither 0.2 nor 0.5 is one, but sigma_min(J - lam I), about lam^16, is
    # below s_req = 1 (the large delta leaves a floor of 1/epsilon only): both
    # endpoints lie in the open set sigma_min < s_req, and so does the segment
    # from either to the exact eigenvalue 0
    a = rg.jordan_block(16, 0.0)
    for lam in (0.2, 0.5):
        path = rg.PolyPath(vertices=(lam + 0.05, lam), eigenvalue=lam, epsilon=1.0, delta=1e12)
        assert rg.certify_path(a, path).failures == ()
    assert rg.sigma_min_batch(a, np.linspace(0.0, 0.55, 2001)).max() < 1.0


def test_certify_refutes_an_exact_tie():
    # sigma(1) = 1 is exactly the floor's sigma 1/(1/epsilon + 0): the loop
    # itself refutes, by bisecting the pieces next to x_1 down to the slack
    path = rg.PolyPath(vertices=(1.0, 0.25, 0.0), eigenvalue=0.0, epsilon=1.0, delta=1e12)
    cert = rg.certify_path(np.diag([0.0 + 0j, 3.0 + 0j]), path)
    assert cert.failures == ("min_f_margin",)
    assert cert.samples == 52


def test_certify_budget():
    # f >= 4.6e9 holds on [0.2, 0.25] for jordan_block(16, 0), but the
    # Lipschitz bound proves the floor's sigma 4.4e-10 only on intervals
    # no longer than twice that, some 6e7 of them: the certificate stops
    # at its per-segment budget instead
    path = rg.PolyPath(vertices=(0.25, 0.2), eigenvalue=0.2, epsilon=1.0, delta=0.0)
    cert = rg.certify_path(rg.jordan_block(16, 0.0), path)
    assert cert.failures == ("min_f_unproved",)
    assert cert.samples <= 2 + 4096


def _sigma_floor(cert, path):
    """sigma that matches the norm floor 1/epsilon + required margin."""
    inv_eps = 1.0 / path.epsilon
    return 1.0 / (inv_eps + 0.5 * (cert.vertex_norms[0] - path.delta - inv_eps))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 8),
    seed=st.integers(0, 2**20),
    tighten=st.one_of(st.none(), st.floats(-0.05, 0.05)),
)
def test_certificate_is_sound(n, seed, tighten):
    """A valid certificate holds under dense re-sampling of every segment.

    ``tighten`` moves the required floor to within a few percent of the
    sampled minimum of f along the path, so both verdicts occur.
    """
    a = rg.random_dense(n, seed)
    rng = np.random.default_rng(seed)
    z = complex(*(np.sqrt(n) * rng.standard_normal(2)))
    f = rg.resolvent_norm(a, z)
    try:
        path, _ = rg.find_path(a, 1.3 / f, z)
    except rg.SearchError:
        return
    verts = np.asarray(path.vertices)
    ts = np.linspace(0.0, 1.0, 4097)
    dense = rg.sigma_min_batch(a, (verts[:-1, None] + ts * np.diff(verts)[:, None]).ravel())
    if tighten is not None:
        # the delta that puts the floor at (1 + tighten) times the dense
        # minimum of f
        inv_eps = 1.0 / path.epsilon
        target = (1.0 + tighten) / float(dense.max())
        path = dataclasses.replace(path, delta=f - inv_eps - 2.0 * (target - inv_eps))

    evaluated = []

    def counting(a_, zs):
        values = rg.sigma_min_batch(a_, zs)
        evaluated.append(values)
        return values

    with mock.patch("resgrow.pseudo.sigma_min_batch", counting):
        cert = rg.certify_path(a, path)
    sigma = np.concatenate(evaluated)
    assert cert.samples == sigma.size
    assert cert.min_f_on_path == 1.0 / sigma.max()
    if cert.valid:
        assert dense.max() <= _sigma_floor(cert, path)


def _unitarily_diagonal(n, seed):
    """Q D Q* with Q unitary: normal, and its Schur form is diagonal
    only to rounding."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = 0.5 * np.sqrt(n) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return (q * d) @ q.conj().T


def _svd_sigma_min(a, zs):
    """sigma_min of every shift of a by the batched SVD kernel."""
    return linalg._sigma_min_svd(a - zs[:, None, None] * np.eye(a.shape[0]), zs)


@pytest.mark.parametrize("kind", ["random_dense", "normal"])
def test_certificate_is_sound_on_schur_route(kind):
    """The floor verdict holds under dense SVD re-sampling when the
    certificate's sigma values come from the Schur route: inverse Lanczos
    for the non-normal matrix, the Weyl formula on the Schur form T of the
    normal one, which is not itself diagonal.

    The found path's segments are cut into 80 vertices, so that the
    vertex batch alone takes the Schur route; the cut vertices need not
    have increasing norms, so only the floor verdict is checked.  Every
    value the certificate reads lies above the SVD's less its rounding
    slack, which is what its Lipschitz bound needs.
    """
    n = linalg._SCHUR_MIN_N
    a = rg.random_dense(n, 2) if kind == "random_dense" else _unitarily_diagonal(n, 2)
    rng = np.random.default_rng(2)
    z = complex(*(np.sqrt(n) * rng.standard_normal(2)))
    f = rg.resolvent_norm(a, z)
    path, _ = rg.find_path(a, 1.3 / f, z)
    verts = np.asarray(path.vertices)
    ts = np.linspace(0.0, 1.0, 80 // (verts.shape[0] - 1) + 1)[:-1]
    cut = np.append((verts[:-1, None] + ts * np.diff(verts)[:, None]).ravel(), verts[-1])
    path = dataclasses.replace(path, vertices=tuple(cut))
    ts = np.linspace(0.0, 1.0, 1025)
    dense = _svd_sigma_min(a, (verts[:-1, None] + ts * np.diff(verts)[:, None]).ravel())
    verdicts = set()
    for tighten in (None, -0.01, -1e-4, 1e-4, 0.01):
        if tighten is not None:
            inv_eps = 1.0 / path.epsilon
            target = (1.0 + tighten) / float(dense.max())
            path = dataclasses.replace(path, delta=f - inv_eps - 2.0 * (target - inv_eps))
        calls = []

        def recording(a_, zs):
            calls.append((zs, rg.sigma_min_batch(a_, zs)))
            return calls[-1][1]

        with mock.patch("resgrow.pseudo.sigma_min_batch", recording):
            cert = rg.certify_path(a, path)
        assert calls[0][0].shape[0] >= linalg._SCHUR_MIN_POINTS
        slack = n * np.finfo(float).eps * (np.linalg.norm(a, 2) + np.abs(cut).max())
        for zs, values in calls:
            assert np.all(values >= _svd_sigma_min(a, zs) - slack)
        proved = not {"min_f_margin", "min_f_unproved"} & set(cert.failures)
        verdicts.add(proved)
        if proved:
            assert dense.max() <= _sigma_floor(cert, path)
    assert verdicts == {True, False}


def test_find_path_singular_vertex():
    # sigma_min(J - zI) is about |z - 0.5|^16 here: the search reaches a
    # vertex 0.034 from the eigenvalue, far outside epsilon/2 = 7.4e-13,
    # where sigma_min is 3.6e-24, below tol_singular
    a = rg.jordan_block(16, 0.5)
    z = 0.536 - 0.176j
    eps = 1.3 / rg.resolvent_norm(a, z)
    with pytest.raises(rg.SearchError) as err:
        rg.find_path(a, eps, z)
    assert err.value.reason == "singular-vertex"
    assert err.value.vertices[0] == z
    assert isinstance(err.value.__cause__, rg.NearSingularError)


def test_path_serialization(diag03):
    path, cert = rg.find_path(diag03, 1.25, 1.0 + 0j)
    data = path.to_dict(cert)
    assert data["vertices"][0] == [1.0, 0.0]
    assert data["eigenvalue"] == [0.0, 0.0]
    assert data["certificate"]["valid"] is True
    assert "certificate" not in path.to_dict()


def test_path_with_real_points_serializes_as_complex():
    """Real numbers given for the points of a path are stored as complex,
    so the payload keeps its [re, im] pairs."""
    path = rg.PolyPath((1.0, 0), 0.0, 1.0, 0.0)
    assert path.vertices == (1 + 0j, 0j) and isinstance(path.eigenvalue, complex)
    data = path.to_dict()
    assert data["vertices"] == [[1.0, 0.0], [0.0, 0.0]]
    assert data["eigenvalue"] == [0.0, 0.0]


@pytest.mark.parametrize("delta", [0, -1.0, np.inf, -np.inf, np.float64(0.5)])
def test_path_takes_any_real_delta(delta):
    """Any real delta but NaN is legal, +inf as find_path builds it at an exact
    eigenvalue and negative ones that raise the floor; each is stored as a float."""
    path = rg.PolyPath((1.0, 0.0), 0.0, 1.0, delta)
    assert type(path.delta) is float and path.delta == delta


def test_path_to_dict_key_order(diag03):
    path, cert = rg.find_path(diag03, 1.25, 1.0 + 0j)
    fields = ["vertices", "eigenvalue", "epsilon", "delta"]
    assert list(path.to_dict()) == fields
    assert list(path.to_dict(cert)) == fields + ["certificate"]
    assert list(cert.to_dict()) == [
        "samples",
        "min_f_on_path",
        "vertex_norms",
        "endpoint_distance",
        "valid",
        "failures",
    ]
    assert cert.to_dict()["failures"] == []


@pytest.mark.parametrize("epsilon", [0.0, -1.0, float("nan")])
def test_certify_rejects_nonpositive_epsilon(diag03, epsilon):
    # the PolyPath itself rejects the epsilon, so no path reaches certify_path
    with pytest.raises(ValueError, match="epsilon must be positive"):
        rg.certify_path(diag03, rg.PolyPath((1.0 + 0j, 0j), 0j, epsilon, 0.0))
