"""Dense complex matrix primitives.

Everything downstream works with square ``complex128`` arrays at desk
scale (n up to a few hundred), so the implementations here lean on
LAPACK through numpy and add the contracts the rest of the toolkit
relies on: validated inputs, accuracy checks on every factorization,
explicit near-singularity detection, and a deterministic choice of
singular vector when the bottom singular space is (nearly) degenerate.

The resolvent itself is never formed as an explicit inverse; shifted
systems are solved through the SVD factors, or, for large batches of
sigma_min evaluations, by triangular solves with the Schur form.
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_CONFIG, RunConfig, _integer, _point
from .errors import DecompositionError, NearSingularError
from .serialize import dumps, payload

# Relative tolerance for treating trailing singular values as tied with
# the smallest one.  Deliberately far below the accuracy contract of
# norm_determining_vector (1e-9) so picking the first vector of a tied
# block can never violate it; exact ties (e.g. the identity) still
# resolve to the lowest index.
_TIE_REL = 1e-12


def as_matrix(obj) -> np.ndarray:
    """Validate and return a square complex matrix.

    Accepts anything ``np.asarray`` does, and an Operator, whose
    read-only ``matrix`` is returned as it is.  Raises ValueError on
    empty or non-square shapes and on entries that are not finite numbers.
    """
    if isinstance(obj, Operator):
        return obj.matrix
    try:
        a = np.asarray(obj, dtype=complex)
    except TypeError as exc:  # entries that are not numbers
        raise ValueError(f"matrix entries must be numbers: {exc}") from None
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
    """Validate a finite 1-D complex vector of length n, if given; raises ValueError."""
    try:
        v = np.asarray(obj, dtype=complex)
    except TypeError as exc:
        raise ValueError(f"vector entries must be numbers: {exc}") from None
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


def eigenvalues(m) -> np.ndarray:
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
    """Distance from z to a finite set of eigenvalues (ValueError unless z is finite)."""
    return float(np.min(np.abs(np.asarray(eigs) - _point("z", z))))


def _read_only(x: np.ndarray) -> np.ndarray:
    x.flags.writeable = False
    return x


class Operator:
    """A validated, read-only copy of a square matrix A whose spectrum,
    ||A||_2 and complex Schur form are computed on first use and kept.
    Every function that takes a matrix takes an Operator too (see
    ``as_matrix``), so calls sharing one compute each of these once."""

    def __init__(self, m):
        self.matrix = _read_only(np.array(as_matrix(m)))

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """All eigenvalues, sorted by (real, imag); see ``eigenvalues``."""
        return _read_only(eigenvalues(self.matrix))

    @cached_property
    def norm(self) -> float:
        """The spectral norm ||A||_2."""
        return float(np.linalg.norm(self.matrix, 2))

    @cached_property
    def schur(self) -> np.ndarray | None:
        """T of the complex Schur form A = Z T Z*, or None if LAPACK fails."""
        # imported here: at module level it would slow `import resgrow` by 0.36 s
        from scipy.linalg.lapack import zgees

        # T only: skipping the unused Schur vectors halves scipy.linalg.schur's time
        lwork = int(zgees(lambda _: False, self.matrix, compute_v=0, lwork=-1)[-2][0].real)
        t, *_, info = zgees(lambda _: False, self.matrix, compute_v=0, lwork=lwork)
        return _read_only(t) if info == 0 else None


def as_operator(obj) -> Operator:
    """obj itself if it is an Operator, else a new Operator of the matrix obj."""
    return obj if isinstance(obj, Operator) else Operator(obj)


class ShiftedSolver:
    """A factored shift A - zI for repeated solves.

    One SVD is computed at construction and reused for every
    right-hand side, for the norm, and for the maximizing vector.

    Raises:
        ValueError: z is not a finite complex number.
        NearSingularError: if sigma_min(A - zI) <= cfg.tol_singular.
    """

    def __init__(self, a, z: complex, cfg: RunConfig = DEFAULT_CONFIG):
        a = as_matrix(a)
        self.z = _point("z", z)
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


def sigma_min_batch(a, zs) -> np.ndarray:
    """Smallest singular value of A - zI for every z in a 1-D array.

    A is a matrix or an Operator.  Fewer than ``_SCHUR_MIN_POINTS``
    points, or n < ``_SCHUR_MIN_N``: one batched SVD of the shifted
    matrices per chunk, the accuracy reference.  Otherwise the route
    reads the complex Schur form A = Z T Z*, factored once per Operator
    (once per call for a plain matrix).  If N = triu(T, 1) has ||N||_F
    <= n·u·||A||_F, sigma_min(T - zI) is taken as min_i |t_ii - z| +
    ||N||_F (Weyl), else inverse Lanczos on ((T - zI)*(T - zI))^-1 runs
    for all points in lockstep until the top Ritz value settles to 1e-14
    relative.  Either agrees with the SVD to 1e-12·sigma + n·u·||A||_F
    and bounds sigma_min(T - zI) from above.  Points that overflow or do
    not settle in ``_LANCZOS_MAX_ITER`` steps, or all if the
    factorization fails, are redone by the SVD.  Only this route imports
    scipy.

    Never raises on singularity: exact hits store 0 (in Lanczos, z = some
    t_ii).  Chunks keep temporaries below about ``_CHUNK_BYTES``.
    """
    m = as_matrix(a)
    zs = np.asarray(zs, dtype=complex).ravel()
    n = m.shape[0]
    chunk = max(1, _CHUNK_BYTES // (16 * n * n))
    if n >= _SCHUR_MIN_N and zs.shape[0] >= _SCHUR_MIN_POINTS:
        return _sigma_min_schur(as_operator(a), zs, chunk)
    return _sigma_min_svd(m, zs, chunk)


# Below either size the batched SVD is faster (tools/sigma_min_crossover.py);
# then the Ritz value settling tolerance, the Lanczos step cap before the
# SVD takes over, the block size where triangular solves stop splitting,
# and the bound on the temporaries of one chunk of points.
_SCHUR_MIN_N = 48
_SCHUR_MIN_POINTS = 64
_LANCZOS_REL = 1e-14
_LANCZOS_MAX_ITER = 24
_LEAF_ROWS = 16
_CHUNK_BYTES = 1 << 26


def _sigma_min_schur(op: Operator, zs: np.ndarray, chunk: int) -> np.ndarray:
    t = op.schur
    if t is None:
        return _sigma_min_svd(op.matrix, zs, chunk)
    off = np.linalg.norm(np.triu(t, 1))
    out = np.empty(zs.shape[0], dtype=float)
    for start in range(0, zs.shape[0], chunk):
        zz = zs[start : start + chunk]
        if off <= t.shape[0] * np.finfo(float).eps * np.linalg.norm(t):
            out[start : start + chunk] = np.abs(np.diagonal(t)[:, None] - zz).min(axis=0) + off
        else:
            out[start : start + chunk] = _inverse_lanczos(t, zz)
    redo = np.isnan(out)
    out[redo] = _sigma_min_svd(op.matrix, zs[redo], chunk)
    return out


def _solve_upper(t: np.ndarray, dg: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (T - z_p I) x_p = b_p for every column p, with T upper
    triangular and dg[i, p] = t_ii - z_p.  Off-diagonal blocks do not
    depend on z, so each is one shared product."""
    n = t.shape[0]
    if n <= _LEAF_ROWS:
        x = np.empty_like(b)
        for i in range(n - 1, -1, -1):
            x[i] = (b[i] - t[i, i + 1 :] @ x[i + 1 :]) / dg[i]
        return x
    h = n // 2
    x2 = _solve_upper(t[h:, h:], dg[h:], b[h:])
    x1 = _solve_upper(t[:h, :h], dg[:h], b[:h] - t[:h, h:] @ x2)
    return np.concatenate((x1, x2))


def _inverse_lanczos(t: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """sigma_min(T - zI) by Lanczos on ((T - zI)*(T - zI))^-1, all points in
    lockstep from one start vector; NaN where it overflows or does not settle."""
    n, cap = t.shape[0], _LANCZOS_MAX_ITER
    dg = np.diagonal(t)[:, None] - zs[None, :]
    out = np.where((dg == 0.0).any(axis=0), 0.0, np.nan)
    act = np.flatnonzero(np.isnan(out))
    dg = dg[:, act]
    # T* - conj(z) I is lower triangular; reversing rows and columns makes
    # it upper, so one back substitution serves both solves
    t_low, dg_low = np.ascontiguousarray(t.conj().T[::-1, ::-1]), dg.conj()[::-1]
    start_vec = np.random.default_rng(0).standard_normal((n, 2)) @ np.array([1.0, 1.0j])
    q = np.repeat(start_vec[:, None] / np.linalg.norm(start_vec), act.shape[0], axis=1)
    q_prev, beta, theta = np.zeros_like(q), np.zeros(act.shape[0]), np.zeros(act.shape[0])
    coef = np.zeros((2, cap, act.shape[0]))  # alpha_k, beta_k per point
    with np.errstate(all="ignore"):
        for k in range(cap):
            w = _solve_upper(t, dg, _solve_upper(t_low, dg_low, q[::-1])[::-1]) - beta * q_prev
            alpha = np.einsum("ip,ip->p", q.conj(), w).real
            w -= alpha * q
            beta = np.linalg.norm(w, axis=0)
            coef[:, k] = alpha, beta
            # the Lanczos tridiagonals; eigvalsh reads the lower half only
            ab = coef[:, : k + 1].transpose(2, 0, 1)
            tri = ab[:, 0, :, None] * np.eye(k + 1) + ab[:, 1, None, :] * np.eye(k + 1, k=-1)
            finite = np.isfinite(alpha) & np.isfinite(beta)
            theta_old, theta = theta, np.full(act.shape[0], np.nan)
            theta[finite] = np.linalg.eigvalsh(tri[finite])[:, -1]
            settled = (k > 0) & (np.abs(theta - theta_old) <= _LANCZOS_REL * theta)
            done = np.isfinite(theta) & ((beta == 0.0) | settled)
            out[act[done]] = 1.0 / np.sqrt(theta[done])
            keep = np.isfinite(theta) & ~done
            if not keep.any():
                break
            state = (act, dg, dg_low, q, w, beta, theta, coef)
            act, dg, dg_low, q_prev, w, beta, theta, coef = (v[..., keep] for v in state)
            q = w / beta
    return out


def _sigma_min_svd(a: np.ndarray, zs: np.ndarray, chunk: int) -> np.ndarray:
    n = a.shape[0]
    out = np.empty(zs.shape[0], dtype=float)
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
    return {"n": a.shape[0], "entries": payload(a.ravel())}


def matrix_from_dict(data) -> np.ndarray:
    if not isinstance(data, dict):
        raise ValueError("matrix payload must be a JSON object")
    if set(data.keys()) != {"n", "entries"}:
        raise ValueError('matrix payload must have exactly the keys "n" and "entries"')
    n = _integer('"n"', data["n"], 1)
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(matrix_to_dict(m)))


def load_matrix(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed matrix file {path}: {exc}") from exc
    return matrix_from_dict(data)

