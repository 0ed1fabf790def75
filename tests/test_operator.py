"""The Operator: per-matrix data computed once, and results equal to
those of the plain matrix it was built from."""

import gc
import importlib
import sys
import threading
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resgrow as rg
from resgrow import linalg
from resgrow.cli import main
from resgrow.serialize import dumps

N = linalg._SCHUR_MIN_N


@pytest.fixture(scope="module")
def query():
    """A random_dense(48, 2) matrix, a resolvent point and a path epsilon."""
    a = rg.random_dense(N, 2)
    z = complex(*(np.sqrt(N) * np.random.default_rng(2).standard_normal(2)))
    return a, z, 1.3 / rg.resolvent_norm(a, z)


def test_operator_results_equal_plain_matrix_results(query):
    """One Operator shared by every call gives exactly what each call
    gives on the raw array, so earlier calls' cached data changes nothing."""
    a, z, eps = query
    op = rg.Operator(a)
    point = rg.analyze_point(op, z)
    assert point.to_dict() == rg.analyze_point(a, z).to_dict()
    dist = point.spectral_distance
    assert (
        rg.local_min_probe(op, z, 0.25 * dist).to_dict()
        == rg.local_min_probe(a, z, 0.25 * dist).to_dict()
    )
    steps = rg.default_taylor_steps(start=min(1e-2, 0.2 * dist))
    args = (z, point.psi, point.theta0, steps)
    assert (
        rg.taylor_remainder_check(op, *args).to_dict()
        == rg.taylor_remainder_check(a, *args).to_dict()
    )
    path, cert = rg.find_path(op, eps, z)
    raw_path, raw_cert = rg.find_path(a, eps, z)
    assert path.to_dict(cert) == raw_path.to_dict(raw_cert)
    assert rg.certify_path(op, path).to_dict() == rg.certify_path(a, path).to_dict()
    rng = np.random.default_rng(5)
    zs = np.sqrt(N) * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
    for batch in (zs[: linalg._SCHUR_MIN_POINTS - 1], zs):  # SVD route, then Schur route
        assert np.array_equal(rg.sigma_min_batch(op, batch), rg.sigma_min_batch(a, batch))
    assert op.schur is not None


def test_operator_is_a_read_only_copy():
    source = rg.random_dense(6, 0)
    kept = source.copy()
    op = rg.Operator(source)
    source[0, 0] = 100.0
    assert np.array_equal(op.matrix, kept)
    assert np.array_equal(op.eigenvalues, rg.eigenvalues(kept))
    assert op.norm == np.linalg.norm(kept, 2)
    assert np.array_equal(op.schur, linalg.Operator(kept).schur)
    for data in (op.matrix, op.eigenvalues, op.schur):
        with pytest.raises(ValueError):
            data[0] = 1.0
    assert linalg.as_matrix(op) is op.matrix
    assert linalg.as_operator(op) is op


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["diagonal", "jordan", "triu"]),
    n=st.integers(1, 64),
    seed=st.integers(0, 2**20),
)
def test_triangular_matrix_is_its_own_schur_form(kind, n, seed):
    """zgees returns an upper triangular A as its T bitwise unchanged, the
    property by which inverse Lanczos stores 0 where z equals some a_ii."""
    rng = np.random.default_rng(seed)
    # diagonal entries from a short list, so repeated and zero ones are common
    diag = rng.choice(np.array([0.0, 1.0, 0.5j, -2.5 + 1.0j]), n)
    upper = {
        "diagonal": np.zeros((n, n)),
        "jordan": np.eye(n, k=1),
        "triu": np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1),
    }[kind]
    a = np.diag(diag) + upper
    assert rg.Operator(a).schur.tobytes() == a.tobytes()


@pytest.mark.parametrize(
    "bad",
    [np.zeros(3), np.zeros((2, 3)), np.zeros((0, 0)), [[np.inf]], [["x"]], {"a": 1}, [[object()]]],
)
def test_operator_rejects_what_as_matrix_rejects(bad):
    with pytest.raises(ValueError) as expected:
        linalg.as_matrix(bad)
    with pytest.raises(ValueError) as err:
        rg.Operator(bad)
    assert str(err.value) == str(expected.value)


def _counting(target):
    """Patch target with a wrapper that records every call's arguments."""
    module, name = target.rsplit(".", 1)
    original = getattr(importlib.import_module(module), name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    return mock.patch(target, wrapper), calls


def test_find_path_computes_spectrum_and_schur_form_once(query, monkeypatch):
    """With every batch of two points or more sent to the Schur route,
    the line search's fan probes and floor batches take it, yet the
    search factors A once, as it computes its eigenvalues once, however
    many vertices it analyzes.  The Operator calls ``eigenvalues`` by its
    module-level name, where a tracer counts it, and LAPACK's eigvals is
    reached no other way."""
    a, z, eps = query
    monkeypatch.setattr(linalg, "_SCHUR_MIN_POINTS", 2)
    eig_patch, eig_calls = _counting("resgrow.linalg.eigenvalues")
    eigvals_patch, eigvals_calls = _counting("numpy.linalg.eigvals")
    schur_patch, schur_calls = _counting("scipy.linalg.lapack.zgees")
    analyze_patch, analyze_calls = _counting("resgrow.pseudo.analyze_point")
    with eig_patch, eigvals_patch, schur_patch, analyze_patch:
        path, cert = rg.find_path(a, eps, z)
    assert cert.valid and len(analyze_calls) >= 2
    assert len(eig_calls) == len(eigvals_calls) == 1
    assert len([c for c in schur_calls if c[1]["lwork"] != -1]) == 1


def test_taylor_command_computes_spectrum_once(tmp_path, capsys):
    """analyze_point and taylor_remainder_check share one Operator."""
    path = tmp_path / "shift4.json"
    shift4 = rg.weighted_shift([2, 1, 1, 1])
    rg.save_matrix(str(path), shift4)
    eig_patch, eig_calls = _counting("resgrow.linalg.eigenvalues")
    eigvals_patch, eigvals_calls = _counting("numpy.linalg.eigvals")
    svd_patch, svd_calls = _counting("resgrow.linalg.svd")
    with eig_patch, eigvals_patch, svd_patch:
        assert main(["taylor", str(path), "--z", "0,0", "--theta", "0"]) == 0
    capsys.readouterr()
    assert len(eig_calls) == len(eigvals_calls) == len(svd_calls) == 1


def _growth_check(a, z, fresh):
    """The payloads of the growth check at z, analyze_point ->
    sample_segment_auto -> taylor_remainder_check -> local_min_probe, each
    call given a (or a new Operator of it, if fresh)."""
    arg = (lambda: rg.Operator(a)) if fresh else (lambda: a)
    point = rg.analyze_point(arg(), z)
    theta = 0.0 if point.theta0 is None else point.theta0
    report = rg.sample_segment_auto(arg(), point, direction=theta)
    steps = rg.default_taylor_steps(start=min(1e-2, 0.2 * point.spectral_distance))
    taylor = rg.taylor_remainder_check(arg(), z, point.psi, theta, steps)
    probe = rg.local_min_probe(arg(), z, 0.25 * point.spectral_distance)
    return [dumps(r.to_dict()) for r in (point, report, taylor, probe)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_growth_check_on_a_plain_array_factors_once(seed):
    """Consecutive calls on one plain array share its Operator and its
    factored shift at z: one spectrum and one full SVD for the whole check,
    with payloads byte-identical to a new Operator per call."""
    a = rg.random_dense(64, seed)
    z = complex(*(4.0 * np.random.default_rng(seed).standard_normal(2)))
    eigvals_patch, eigvals_calls = _counting("numpy.linalg.eigvals")
    svd_patch, svd_calls = _counting("resgrow.linalg.svd")
    with eigvals_patch, svd_patch:
        shared = _growth_check(a, z, fresh=False)
    assert len(eigvals_calls) == len(svd_calls) == 1
    assert shared == _growth_check(a, z, fresh=True)


def test_sharing_goes_by_exact_bits():
    """A plain matrix shares the last Operator only if its shape and bytes are
    equal, and an Operator's factored shift is reused only for the same bits
    of z and an equal RunConfig; values equal under == but with other bits
    (signed zeros) get their own."""
    a = rg.random_dense(6, 0)
    op = linalg.as_operator(a)
    assert linalg.as_operator(a.tolist()) is op
    rg.ShiftedSolver(rg.random_dense(5, 1), 0.5)  # a solver built directly keeps out of the slot
    assert linalg.as_operator(a) is op
    a[0, 0] += 1.0
    mutated = linalg.as_operator(a)
    assert mutated is not op and np.array_equal(mutated.matrix, a)
    assert linalg.as_operator(a) is mutated

    b = np.diag([1.0 + 0j, 2.0, 3.0])
    signed = b.copy()
    signed[1, 0] = complex(-0.0, 0.0)
    op_b = linalg.as_operator(b)
    assert linalg.as_operator(signed) is not op_b
    assert linalg.as_operator(b) is not op_b  # the slot holds one Operator

    cfg = rg.RunConfig()
    solver = op._shifted(0j, cfg)
    assert op._shifted(0, rg.RunConfig()) is solver
    signed_z = op._shifted(complex(-0.0, 0.0), cfg)
    assert signed_z is not solver and signed_z.z.real.hex() == "-0x0.0p+0"
    other_cfg = op._shifted(complex(-0.0, 0.0), cfg.replace(tol_svd=1e-9))
    assert other_cfg is not signed_z and other_cfg.cfg.tol_svd == 1e-9


def _calls_on_kept_data():
    """The growth check on a plain array, find_path on an Operator, a grid with
    its metadata and CSV, a split batch and a Lanczos batch."""
    a = rg.random_dense(16, 3)
    _growth_check(a, 1.5 - 0.5j, fresh=False)
    op = rg.Operator(a)
    rg.find_path(op, 1.3 / rg.resolvent_norm(op, 1.5 - 0.5j), 1.5 - 0.5j)
    grid = rg.grid_sigma_min(rg.jordan_block(8, 0.0), -1.0, 1.0, -1.0, 1.0, 40, 40)
    rg.grid_metadata(grid, 0.1)
    grid.to_csv()
    zs = np.exp(2j * np.pi * np.arange(1500) / 1500) * 3.0
    rg.sigma_min_batch(a, zs)  # split on the SVD route: 24,000 rows
    rg.sigma_min_batch(rg.random_dense(48, 1), zs[:80])  # inverse Lanczos


def test_calls_leave_no_reference_cycles():
    """What a call keeps (an Operator, its factored shift) is freed by
    reference counting: after a warm-up run, which makes the pool and the
    lazy imports, the calls leave nothing for the cyclic collector."""
    _calls_on_kept_data()
    gc.collect()
    gc.disable()
    try:
        _calls_on_kept_data()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_operator_is_freed_with_its_last_reference():
    """The factored shift in an Operator's slot refers to no Operator, so
    dropping the last reference frees it at once, without the collector."""
    op = rg.Operator(rg.random_dense(8, 1))
    rg.analyze_point(op, 0.5 + 0.5j)
    ref = weakref.ref(op)
    del op
    assert ref() is None


def test_failed_shift_is_not_kept():
    """A shift that raises NearSingularError leaves the slot as it was."""
    op = rg.Operator(np.diag([0.0 + 0j, 3.0]))
    solver = op._shifted(1.0, rg.DEFAULT_CONFIG)
    with pytest.raises(rg.NearSingularError):
        op._shifted(0.0, rg.DEFAULT_CONFIG)
    assert op._shifted(1.0, rg.DEFAULT_CONFIG) is solver


def test_slots_under_threads():
    """Threads sharing the slots each get the Operator of their own matrix
    and the solver of their own z, however the slots change under them."""
    mats = [rg.random_dense(6, seed) for seed in range(4)]
    op, errors = rg.Operator(mats[0]), []

    def work(k):
        try:
            for i in range(300):
                z = 10.0 + k + 4 * (i % 2)  # a new z each call, so the slot changes
                assert np.array_equal(linalg.as_operator(mats[k]).matrix, mats[k])
                assert op._shifted(z, rg.DEFAULT_CONFIG).z == z
        except AssertionError as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
