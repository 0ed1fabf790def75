"""Dense complex matrix primitives.

Everything downstream works with square ``complex128`` arrays at desk
scale (n up to a few hundred), so the implementations here lean on
LAPACK through numpy and add the contracts the rest of the toolkit
relies on: validated inputs, accuracy checks on every factorization,
explicit near-singularity detection, and a deterministic choice of
singular vector when the bottom singular space is (nearly) degenerate.

The resolvent itself is never formed as an explicit inverse; shifted
systems are solved through the SVD factors.
"""

from __future__ import annotations

import json
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_CONFIG, RunConfig
from .errors import DecompositionError, NearSingularError

# Relative tolerance for treating trailing singular values as tied with
# the smallest one.  Deliberately far below the accuracy contract of
# norm_determining_vector (1e-9) so picking the first vector of a tied
# block can never violate it; exact ties (e.g. the identity) still
# resolve to the lowest index.
_TIE_REL = 1e-12


def as_matrix(obj) -> np.ndarray:
    """Validate and return a square complex matrix.

    Accepts anything ``np.asarray`` does.  Rejects empty matrices,
    non-square shapes and non-finite entries.
    """
    a = np.asarray(obj, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"matrix must be 2-dimensional, got shape {a.shape}")
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("empty matrices are not supported (n must be >= 1)")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def as_vector(obj, n: int | None = None) -> np.ndarray:
    """Validate a 1-D complex vector, optionally of prescribed length."""
    v = np.asarray(obj, dtype=complex)
    if v.ndim != 1:
        raise ValueError(f"vector must be 1-dimensional, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise ValueError(f"vector has length {v.shape[0]}, expected {n}")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v


class SvdResult(NamedTuple):
    """Full SVD, M = left @ diag(values) @ right.conj().T.

    ``values`` is descending and nonnegative; the columns of ``left``
    and ``right`` are the singular vectors.
    """

    left: np.ndarray
    values: np.ndarray
    right: np.ndarray


def svd(m, cfg: RunConfig = DEFAULT_CONFIG) -> SvdResult:
    """Full SVD with a reconstruction check.

    Raises:
        DecompositionError: if LAPACK fails to converge or the
            reconstruction error exceeds ``tol_svd * max(1, ||M||)``.
    """
    a = as_matrix(m)
    try:
        u, s, vh = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"SVD failed to converge: {exc}") from exc
    scale = max(1.0, float(s[0]))
    err = float(np.linalg.norm(a - (u * s) @ vh))
    if err > cfg.tol_svd * scale:
        raise DecompositionError(
            f"SVD reconstruction error {err:.3e} exceeds {cfg.tol_svd:.1e} * {scale:.3e}"
        )
    return SvdResult(u, s, vh.conj().T)


def canonical_phase(v: np.ndarray) -> np.ndarray:
    """Rotate a nonzero vector so its first largest-modulus component
    becomes real and positive.

    This is the deterministic phase convention used for every reported
    singular vector: unit vectors that differ only by a global phase
    map to the same representative.
    """
    v = np.asarray(v, dtype=complex)
    i = int(np.argmax(np.abs(v)))
    mag = abs(v[i])
    if mag == 0.0:
        raise ValueError("cannot fix the phase of a zero vector")
    return v * (v[i].conjugate() / mag)


def _min_left_vector(dec: SvdResult) -> np.ndarray:
    """Left singular vector for the smallest singular value.

    When trailing values tie with the smallest (relative gap below
    ``_TIE_REL``), the first vector of the tied block is chosen so the
    result is deterministic; for the identity this yields e_0.
    """
    s = dec.values
    tied = np.flatnonzero(s <= s[-1] * (1.0 + _TIE_REL))
    return canonical_phase(dec.left[:, int(tied[0])])


def smallest_singular_pair(m, cfg: RunConfig = DEFAULT_CONFIG) -> tuple[float, np.ndarray]:
    """Smallest singular value of M and a unit left singular vector for it.

    The vector follows the canonical phase convention; see
    ``_min_left_vector`` for the tie rule on degenerate bottom spaces.
    """
    dec = svd(m, cfg)
    return float(dec.values[-1]), _min_left_vector(dec)


def eigenvalues(m, cfg: RunConfig = DEFAULT_CONFIG) -> np.ndarray:
    """All eigenvalues, sorted by (real, imag) for determinism.

    Accuracy is pinned by tests through the residual certificate
    ``sigma_min(M - lam*I) <= tol_eig * max(1, ||M||)``.
    """
    a = as_matrix(m)
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"eigenvalue computation failed: {exc}") from exc
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


def spectral_distance(eigs: np.ndarray, z: complex) -> float:
    """Distance from z to a finite set of eigenvalues."""
    return float(np.min(np.abs(np.asarray(eigs) - complex(z))))


class ShiftedSolver:
    """A factored shift A - zI for repeated solves.

    One SVD is computed at construction and reused for every
    right-hand side, for the norm, and for the maximizing vector.

    Raises:
        NearSingularError: if sigma_min(A - zI) <= cfg.tol_singular.
    """

    def __init__(self, a, z: complex, cfg: RunConfig = DEFAULT_CONFIG):
        a = as_matrix(a)
        self.z = complex(z)
        self.cfg = cfg
        self.matrix = a - self.z * np.eye(a.shape[0])
        self.decomposition = svd(self.matrix, cfg)
        self.sigma_min = float(self.decomposition.values[-1])
        if self.sigma_min <= cfg.tol_singular:
            raise NearSingularError(
                f"shift z={self.z} is within {cfg.tol_singular:.1e} of the spectrum "
                f"(sigma_min={self.sigma_min:.3e})",
                self.sigma_min,
            )

    @property
    def norm(self) -> float:
        """The resolvent norm 1 / sigma_min."""
        return 1.0 / self.sigma_min

    def min_left_vector(self) -> np.ndarray:
        return _min_left_vector(self.decomposition)

    def degenerate(self) -> bool:
        """True when the two largest singular values of the resolvent
        are within ``cfg.degeneracy_gap`` relative of each other."""
        s = self.decomposition.values
        if s.shape[0] < 2:
            return False
        return bool(1.0 - s[-1] / s[-2] < self.cfg.degeneracy_gap)

    def solve(self, b) -> np.ndarray:
        """Solve (A - zI) x = b through the SVD factors.

        The backward-stable residual criterion
        ``||Mx - b|| <= tol_solve * (||M|| ||x|| + ||b||)`` is enforced;
        the plain residual relative to b alone is not attainable when
        the shift sits close to the spectrum.
        """
        u, s, v = self.decomposition
        b = as_vector(b, self.matrix.shape[0])
        x = v @ ((u.conj().T @ b) / s)
        resid = float(np.linalg.norm(self.matrix @ x - b))
        bound = self.cfg.tol_solve * (
            float(s[0]) * float(np.linalg.norm(x)) + float(np.linalg.norm(b))
        )
        if resid > bound:
            raise DecompositionError(
                f"shifted solve residual {resid:.3e} exceeds its bound {bound:.3e}"
            )
        return x


def shifted_solve(a, z: complex, b, cfg: RunConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Solve (A - zI) x = b.  See ShiftedSolver for the contracts."""
    return ShiftedSolver(a, z, cfg).solve(b)


def sigma_min_batch(a, zs, chunk_bytes: int = 1 << 26) -> np.ndarray:
    """Smallest singular value of A - zI for every z in a 1-D array.

    Never raises on singularity: exact eigenvalue hits simply store 0.
    The shifted matrices are stacked and factored in chunks so the
    temporary stays below roughly ``chunk_bytes``.
    """
    a = as_matrix(a)
    zs = np.asarray(zs, dtype=complex).ravel()
    n = a.shape[0]
    out = np.empty(zs.shape[0], dtype=float)
    chunk = max(1, chunk_bytes // (16 * n * n))
    eye = np.eye(n)
    for start in range(0, zs.shape[0], chunk):
        zz = zs[start : start + chunk]
        stack = a[None, :, :] - zz[:, None, None] * eye[None, :, :]
        try:
            vals = np.linalg.svd(stack, compute_uv=False)
        except np.linalg.LinAlgError:
            # batched driver failed somewhere in the chunk; fall back
            # to one matrix at a time so a single bad shift cannot
            # poison its neighbors
            vals = np.empty((zz.shape[0], n))
            for k in range(zz.shape[0]):
                try:
                    vals[k] = np.linalg.svd(stack[k], compute_uv=False)
                except np.linalg.LinAlgError as exc:
                    raise DecompositionError(
                        f"SVD failed to converge at z={zz[k]}: {exc}"
                    ) from exc
        out[start : start + chunk] = vals[:, -1]
    return out


def norms_from_sigma(s) -> np.ndarray:
    """Resolvent norms 1/sigma_min; exact hits (sigma 0) give inf."""
    with np.errstate(divide="ignore"):
        return np.where(s > 0.0, 1.0 / s, np.inf)


def circle_directions(count: int) -> np.ndarray:
    """count unit directions at the angles -pi + 2 pi (k + 1) / count."""
    angles = -np.pi + 2.0 * np.pi * (np.arange(count) + 1) / count
    return np.exp(1j * angles)


# --- matrix file format ------------------------------------------------
#
# {"n": 3, "entries": [[re, im], ...]}   with n*n row-major entries


def matrix_to_dict(m) -> dict:
    a = as_matrix(m)
    n = a.shape[0]
    flat = a.reshape(n * n)
    return {"n": n, "entries": [[float(e.real), float(e.imag)] for e in flat]}


def matrix_from_dict(data) -> np.ndarray:
    if not isinstance(data, dict):
        raise ValueError("matrix payload must be a JSON object")
    if set(data.keys()) != {"n", "entries"}:
        raise ValueError('matrix payload must have exactly the keys "n" and "entries"')
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError('"n" must be a positive integer')
    entries = data["entries"]
    if not isinstance(entries, list) or len(entries) != n * n:
        raise ValueError(f'"entries" must hold exactly n*n = {n * n} pairs')
    values = np.empty(n * n, dtype=complex)
    for k, pair in enumerate(entries):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or any(isinstance(p, bool) or not isinstance(p, (int, float)) for p in pair)
        ):
            raise ValueError(f"entry {k} is not a [re, im] pair of numbers")
        values[k] = complex(pair[0], pair[1])
    return as_matrix(values.reshape(n, n))


def save_matrix(path: str, m) -> None:
    from .serialize import dumps

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(matrix_to_dict(m)))


def load_matrix(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed matrix file {path}: {exc}") from exc
    return matrix_from_dict(data)

