"""Matrix specimen constructors.

Small families with known resolvent behavior, used by the tests and
exposed through the CLI: normal diagonals, a zigzag diagonal whose
pseudospectra form a chain of overlapping disks, circulant weighted
shifts defined through their inverse, Jordan blocks, and seeded dense
random matrices.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT_CONFIG, RunConfig, _integer, _point
from .errors import DecompositionError, NearSingularError
from .linalg import as_matrix, as_vector

# the seeded generator behind random_dense, recorded in CLI metadata so
# outputs can be reproduced elsewhere
RANDOM_DENSE_RNG_ID = "numpy-pcg64/standard-normal-pair/sqrt2"


def diagonal_normal(entries) -> np.ndarray:
    """diag(entries) for a non-empty sequence of finite complex scalars."""
    values = as_vector(entries)
    if values.shape[0] == 0:
        raise ValueError("entries must be a non-empty 1-D sequence")
    return np.diag(values)


def zigzag_diagonal(n: int) -> np.ndarray:
    """Diagonal with entries j + i(-1)^j sqrt(3)/2 for j = 1..n.

    Consecutive eigenvalues alternate above and below the real axis at
    pairwise distance exactly 2, so slightly super-unit epsilon disks
    overlap into a single chain that encloses n-2 gaps.  ValueError
    unless n is an integer >= 2.
    """
    j = np.arange(1, _integer("n", n, 2) + 1)
    return np.diag(j + 1j * (-1.0) ** j * (np.sqrt(3.0) / 2.0))


def circulant_weighted_shift_inverse(weights) -> np.ndarray:
    """The matrix M with M[j, (j-1) mod N] = weights[j].

    M acts as a weighted cyclic shift: (M x)_j = weights[j] * x_{j-1}.
    It is used as the resolvent of a shift operator at the origin, so
    every weight must be nonzero and finite for M to be invertible.
    """
    w = as_vector(weights)
    if w.shape[0] < 2:
        raise ValueError("weights must be a 1-D sequence of length >= 2")
    if np.any(w == 0):
        raise ValueError("all weights must be nonzero")
    n = w.shape[0]
    m = np.zeros((n, n), dtype=complex)
    m[np.arange(n), np.arange(n) - 1] = w
    return m


def operator_from_inverse(m, cfg: RunConfig = DEFAULT_CONFIG) -> np.ndarray:
    """The operator A = M^-1, so that the resolvent of A at 0 equals M.

    Forming the explicit inverse is fine here: this is construction of
    a specimen, not resolvent evaluation.

    Raises:
        NearSingularError: M is numerically singular.
        DecompositionError: the inverse fails its round-trip check.
    """
    m = as_matrix(m)
    sigma = float(np.linalg.svd(m, compute_uv=False)[-1])
    if sigma <= cfg.tol_singular:
        raise NearSingularError(
            f"matrix is numerically singular (sigma_min={sigma:.3e})", sigma
        )
    a = np.linalg.inv(m)
    err = float(np.linalg.norm(a @ m - np.eye(m.shape[0])))
    if err > 1e-9 * max(1.0, float(np.linalg.norm(m)) * float(np.linalg.norm(a))):
        raise DecompositionError(f"inverse round-trip error {err:.3e} is too large")
    return a


def jordan_block(n: int, lam: complex) -> np.ndarray:
    """The n x n Jordan block with eigenvalue lam (ValueError unless n >= 1
    is an integer and lam finite)."""
    n = _integer("n", n, 1)
    m = np.diag(np.full(n, _point("lam", lam)))
    if n > 1:
        m += np.diag(np.ones(n - 1, dtype=complex), k=1)
    return m


def random_dense(n: int, seed: int) -> np.ndarray:
    """Seeded dense matrix with i.i.d. complex standard normal entries.

    Entries are (x + iy)/sqrt(2) with x, y drawn as two stacked
    standard-normal blocks from numpy's default PCG64 generator, so the
    same (n, seed) pair reproduces the same matrix on every run; see
    RANDOM_DENSE_RNG_ID.  ValueError unless n >= 1 and seed >= 0 are integers.
    """
    n = _integer("n", n, 1)
    rng = np.random.default_rng(_integer("seed", seed, 0))
    xy = rng.standard_normal((2, n, n))
    return (xy[0] + 1j * xy[1]) / np.sqrt(2.0)
