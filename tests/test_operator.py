"""The Operator: per-matrix data computed once, and results equal to
those of the plain matrix it was built from."""

import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resgrow as rg
from resgrow import linalg
from resgrow.cli import main

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
    shift4 = rg.operator_from_inverse(rg.circulant_weighted_shift_inverse([2, 1, 1, 1]))
    rg.save_matrix(str(path), shift4)
    eig_patch, eig_calls = _counting("resgrow.linalg.eigenvalues")
    eigvals_patch, eigvals_calls = _counting("numpy.linalg.eigvals")
    with eig_patch, eigvals_patch:
        assert main(["taylor", str(path), "--z", "0,0", "--theta", "0"]) == 0
    capsys.readouterr()
    assert len(eig_calls) == len(eigvals_calls) == 1
