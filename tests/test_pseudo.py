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
from resgrow.pseudo import _line_search


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
    a = rg.operator_from_inverse(rg.circulant_weighted_shift_inverse(weights))
    z = 0.05j
    path, cert = rg.find_path(a, 1.2 / rg.resolvent_norm(a, z), z)
    assert cert.valid
    assert path.eigenvalue in set(rg.eigenvalues(a))
    assert len(path.vertices) == vertices


def test_find_path_evaluates_each_step_once():
    # the saddle query above rejects many steps before the fan takes over;
    # the search may succeed or fail, but no evaluation, the certificate's
    # included, is made twice, and no floor test of the search
    # re-evaluates its vertex or its endpoint
    a = rg.operator_from_inverse(rg.circulant_weighted_shift_inverse([2, 1]))
    z = 0.05j
    eps = 1.2 / rg.resolvent_norm(a, z)
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
    endpoints = [zs[0] for zs in search if len(zs) == 1]
    assert len(set(endpoints)) == len(endpoints)
    batched = {p for zs in search if len(zs) > 1 for p in zs}
    assert batched.isdisjoint(endpoints)


def _reference_line_search(a, x, direction, fx, cap, floor, cfg):
    """Halving x ladder search: every halving rescans the ladder from cap."""
    eta = 1e-9 * fx
    ts = np.linspace(0.0, 1.0, cfg.s_seg)
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
# s_seg = 2 leaves no interior samples: the floor check evaluates an empty batch
@example(n=2, seed=1, turn=0.0, cap_frac=0.5, floor_frac=0.9, max_halvings=3, s_seg=2)
def test_line_search_matches_ladder(n, seed, turn, cap_frac, floor_frac, max_halvings, s_seg):
    """The one-pass step scan returns exactly the ladder search's step.

    The direction is the analyzed ascent direction turned by up to 2
    radians and the cap runs up to four times the spectral distance, so
    steps are found at several depths of the scan, and sometimes none.
    """
    a = rg.random_dense(n, seed)
    rng = np.random.default_rng(seed)
    point = rg.analyze_point(a, complex(*rng.standard_normal(2)))
    direction = complex(np.exp(1j * (turn - (point.theta0 or 0.0))))
    cfg = rg.DEFAULT_CONFIG.replace(max_halvings=max_halvings, s_seg=s_seg)
    cap = cap_frac * point.spectral_distance
    args = (a, point.z, direction, point.norm, cap, floor_frac * point.norm, cfg)
    assert _line_search(*args) == _reference_line_search(*args)


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


def test_certify_rejects_bad_paths(diag03):
    # flat vertex norms, endpoint far from the spectrum
    bad = rg.PolyPath(
        vertices=(1.0 + 0j, 2.0 + 0j, 0.0 + 0j),
        eigenvalue=0.0 + 0j,
        epsilon=3.0,
        delta=0.2,
    )
    cert = rg.certify_path(diag03, bad)
    assert not cert.valid
    assert "vertex_norms_not_increasing" in cert.failures
    assert "endpoint_too_far" in cert.failures

    far = rg.PolyPath(
        vertices=(10.0 + 0j, 11.0 + 0j),
        eigenvalue=11.0 + 0j,
        epsilon=1.0,
        delta=0.1,
    )
    cert = rg.certify_path(diag03, far)
    assert set(cert.failures) >= {"min_f_margin", "endpoint_too_far", "endpoint_not_eigenvalue"}


def test_certify_single_vertex(diag03):
    trivial = rg.PolyPath(
        vertices=(0.0 + 0j,), eigenvalue=0.0 + 0j, epsilon=2.0, delta=0.0
    )
    cert = rg.certify_path(diag03, trivial)
    assert cert.valid
    assert cert.endpoint_distance == 0.0
    assert cert.min_f_on_path == np.inf


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
    # the computed eigenvalues of J = jordan_block(16, 0) are all 0, but
    # sigma_min(J - 0.2 I), about 0.2^16, passes the residual test, while
    # sigma_min(J - 0.5 I), about 0.5^16, does not; the large delta leaves
    # a floor of 1/epsilon only
    a = rg.jordan_block(16, 0.0)
    for lam, ok in ((0.2, True), (0.5, False)):
        path = rg.PolyPath(vertices=(lam + 0.05, lam), eigenvalue=lam, epsilon=1.0, delta=1e12)
        cert = rg.certify_path(a, path)
        assert cert.failures == (() if ok else ("endpoint_not_eigenvalue",))


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


@pytest.mark.parametrize("kind", ["random_dense", "normal"])
def test_certificate_is_sound_on_schur_route(kind):
    """The floor verdict holds under dense SVD re-sampling when the
    certificate's sigma values come from the Schur route: inverse Lanczos
    for the non-normal matrix, the diagonal shortcut for the normal one.

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
    dense = linalg._sigma_min_svd(a, (verts[:-1, None] + ts * np.diff(verts)[:, None]).ravel())
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
            assert np.all(values >= linalg._sigma_min_svd(a, zs) - slack)
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
