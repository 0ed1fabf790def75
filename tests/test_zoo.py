import math
from unittest import mock

import numpy as np
import pytest

import resgrow as rg


def test_diagonal_normal():
    a = rg.diagonal_normal([1.0, 2.0 + 1j])
    assert a.shape == (2, 2)
    assert a[0, 0] == 1.0 and a[1, 1] == 2.0 + 1j
    assert a[0, 1] == 0
    with pytest.raises(ValueError):
        rg.diagonal_normal([])
    for bad in ([[1.0, 2.0]], [math.inf], [math.nan]):
        with pytest.raises(ValueError):
            rg.diagonal_normal(bad)


def test_zigzag_diagonal():
    a = rg.zigzag_diagonal(4)
    d = np.diag(a)
    assert np.allclose(d.real, [1, 2, 3, 4])
    assert np.allclose(np.abs(d.imag), np.sqrt(3.0) / 2.0)
    # imaginary parts alternate, so neighbors sit exactly 2 apart
    assert np.all(np.abs(np.diff(d)) == pytest.approx(2.0))
    assert np.count_nonzero(a - np.diag(d)) == 0
    with pytest.raises(ValueError):
        rg.zigzag_diagonal(1)


def test_zigzag_two_by_two_values():
    h = np.sqrt(3.0) / 2.0
    assert np.allclose(np.diag(rg.zigzag_diagonal(2)), [1.0 - 1j * h, 2.0 + 1j * h])


def test_circulant_inverse_structure():
    for w in ([2, 1, 1, 1], [2, 1 + 1j, 3, 0.5 - 2j, 1]):
        m = rg.circulant_weighted_shift_inverse(w)
        n = len(w)
        for j in range(n):
            for k in range(n):
                expected = w[j] if k == (j - 1) % n else 0
                assert m[j, k] == expected
    with pytest.raises(ValueError):
        rg.circulant_weighted_shift_inverse([2])
    for bad in ([2, 0], [2, math.inf], [2, math.nan]):
        with pytest.raises(ValueError):
            rg.circulant_weighted_shift_inverse(bad)


def test_circulant_gram_structure():
    # M*M is diagonal with the squared weight moduli rotated one slot,
    # and the matrix norm is the largest weight modulus
    w = np.array([2.0, 1.0 + 1j, 3.0, 0.5])
    m = rg.circulant_weighted_shift_inverse(w)
    gram = m.conj().T @ m
    expected = np.abs(np.roll(w, -1)) ** 2
    assert np.allclose(gram, np.diag(expected))
    assert np.linalg.norm(m, 2) == pytest.approx(np.max(np.abs(w)), rel=1e-12)


def test_operator_from_inverse_roundtrip():
    m = rg.circulant_weighted_shift_inverse([2, 1])
    a = rg.operator_from_inverse(m)
    assert np.linalg.norm(a @ m - np.eye(2)) <= 1e-12
    # the operator's singular values are the reciprocals of the weights
    s = np.linalg.svd(a, compute_uv=False)
    assert np.allclose(sorted(s), [0.5, 1.0])


def test_operator_from_inverse_rejects_singular():
    with pytest.raises(rg.NearSingularError):
        rg.operator_from_inverse(np.zeros((2, 2)))


def test_operator_from_inverse_names_the_point_of_a_failed_svd():
    """A LAPACK failure in the singular check is the documented
    DecompositionError, naming the point 0, not numpy's LinAlgError."""
    fail = mock.Mock(side_effect=np.linalg.LinAlgError("SVD did not converge"))
    with (
        mock.patch.object(np.linalg, "svd", fail),
        pytest.raises(rg.DecompositionError, match=r"at z=0j: SVD did not converge"),
    ):
        rg.operator_from_inverse(np.eye(2))


def test_shift_spectrum_shares_modulus():
    # the N-cycle with weight product 2 has eigenvalues on one circle
    m = rg.circulant_weighted_shift_inverse([2, 1, 1, 1])
    a = rg.operator_from_inverse(m)
    eigs = rg.eigenvalues(a)
    assert np.allclose(np.abs(eigs), 2.0 ** (-1.0 / 4.0))


def test_weighted_shift():
    """weighted_shift is the inverse of the circulant M, bitwise, and its
    eigenvalues share the modulus prod(|w|)^(-1/n)."""
    for w in ([2, 1], [2, 1, 1, 1], [2, 1 + 1j, 3, 0.5 - 2j, 1]):
        m = rg.circulant_weighted_shift_inverse(w)
        a = rg.weighted_shift(w)
        assert a.tobytes() == rg.operator_from_inverse(m).tobytes()
        assert np.linalg.norm(a @ m - np.eye(len(w))) <= 1e-12
        radius = np.prod(np.abs(w)) ** (-1.0 / len(w))
        assert np.allclose(np.abs(rg.eigenvalues(a)), radius, rtol=1e-12, atol=0.0)
    with pytest.raises(rg.NearSingularError, match=r"z=0j is within 1.0e-12 of") as exc:
        rg.weighted_shift([1e-13, 1])
    assert exc.value.sigma_min == pytest.approx(1e-13, rel=1e-12)


def test_jordan_block():
    j = rg.jordan_block(3, 0.5 + 1j)
    assert np.allclose(np.diag(j), 0.5 + 1j)
    assert np.allclose(np.diag(j, k=1), 1.0)
    assert j[1, 0] == 0
    with pytest.raises(ValueError):
        rg.jordan_block(0, 0.0)


def test_grcar():
    for n in (1, 2, 5):
        g = rg.grcar(n)
        assert g.shape == (n, n) and g.dtype == complex
        assert np.all(np.diag(g, k=-1) == -1.0)
        for k in range(4):
            assert np.all(np.diag(g, k=k) == 1.0)
        assert np.count_nonzero(np.triu(np.tril(g, 3), -1) - g) == 0
    with pytest.raises(ValueError):
        rg.grcar(0)


def test_random_dense_reproducible():
    a = rg.random_dense(6, 123)
    b = rg.random_dense(6, 123)
    assert np.array_equal(a, b)
    c = rg.random_dense(6, 124)
    assert not np.array_equal(a, c)
    assert a.shape == (6, 6)
    for n, seed in ((0, 1), (3, None), (3, -1)):
        with pytest.raises(ValueError):
            rg.random_dense(n, seed)


def test_random_dense_unit_variance():
    a = rg.random_dense(64, 7)
    assert np.mean(np.abs(a) ** 2) == pytest.approx(1.0, abs=0.05)


def test_rng_id_is_pinned():
    # the identifier names the exact generator recipe; changing the
    # recipe must force a new identifier
    assert rg.RANDOM_DENSE_RNG_ID == "numpy-pcg64/standard-normal-pair/sqrt2"


def test_operator_from_inverse_checks_the_round_trip():
    real_inv = np.linalg.inv
    with (
        mock.patch("numpy.linalg.inv", lambda m: 1.001 * real_inv(m)),
        pytest.raises(rg.DecompositionError, match=r"inverse round-trip error .* is too large"),
    ):
        rg.operator_from_inverse(rg.circulant_weighted_shift_inverse([2, 1]))
