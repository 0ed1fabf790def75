"""Dense complex matrix primitives.

Everything downstream works with square ``complex128`` arrays at desk
scale (n up to a few hundred), so the implementations here lean on
LAPACK through numpy and add the contracts the rest of the toolkit
relies on: validated inputs, accuracy checks on every factorization,
explicit near-singularity detection, and a deterministic choice of
singular vector when the bottom singular space is (nearly) degenerate.

The resolvent itself is never formed as an explicit inverse; shifted
systems are solved through the SVD factors, the Taylor step points near
a factored shift by one batched LU solve, and sigma_min evaluations by
min |a_ii - z| for a diagonal A, else in large batches through the Schur
form T: min |t_ii - z| when T is diagonal, else triangular solves with T.
"""

from __future__ import annotations

import os
from functools import cache, cached_property, lru_cache, partial
from itertools import cycle
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_CONFIG, RunConfig, _finite, _integer, _is_number, _point
from .config import _run_config
from .errors import DecompositionError, NearSingularError
from .serialize import dumps, load_json, payload

# Relative tolerance for treating trailing singular values as tied with
# the smallest one.  Deliberately far below the 1e-9 to which tests hold
# ||R psi|| = ||R|| for psi = ShiftedSolver.min_left_vector(), so picking
# the first vector of a tied block can never break it; exact ties (e.g.
# the identity) still resolve to the lowest index.
_TIE_REL = 1e-12


def _complex_array(name: str, obj, ndim: int, low: int = 1) -> np.ndarray:
    """The array rule of the package: obj as a complex array of ndim
    dimensions with at least low entries, each a finite number as
    ``config._point`` defines it, or ValueError naming it.  An ndarray of
    integer, float or complex dtype is checked by its dtype, any other
    input (lists, tuples, object, bool or str arrays) entry by entry."""
    by_dtype = isinstance(obj, np.ndarray) and obj.dtype.kind in "iufc"
    a = np.asarray(obj, dtype=complex if by_dtype else object)
    if not (by_dtype or all(map(_is_number, a.flat))):
        raise ValueError(f"{name} entries must be numbers")
    if a.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {a.shape}")
    if a.size < low:
        raise ValueError(f"{name} has {a.size} entries, needs at least {low}")
    if not (np.isfinite(a).all() if by_dtype else all(map(_finite, a.flat))):
        raise ValueError(f"{name} entries must be finite")
    return a if by_dtype else a.astype(complex)


def as_matrix(obj) -> np.ndarray:
    """Validate and return a square complex matrix.

    Accepts a nested sequence or an array of numbers, and an Operator, whose
    read-only ``matrix`` is returned as it is.  Raises ValueError on
    empty or non-square shapes and on entries that are not finite numbers
    (``bool`` and strings are not numbers).
    """
    if isinstance(obj, Operator):
        return obj.matrix
    a = _complex_array("matrix", obj, 2)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    return a


def as_vector(obj, n: int | None = None, name: str = "vector") -> np.ndarray:
    """Validate a finite 1-D complex vector of length n, if given; ValueError names it."""
    v = _complex_array(name, obj, 1)
    if n is not None and v.shape[0] != n:
        raise ValueError(f"{name} has length {v.shape[0]}, expected {n}")
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
    map to the same representative.  ValueError unless v is a non-empty,
    nonzero 1-D vector of finite numbers.
    """
    v = _complex_array("v", v, 1)
    i = int(np.argmax(np.abs(v)))
    mag = abs(v[i])
    if mag == 0.0:
        raise ValueError("cannot fix the phase of a zero vector")
    return v * (v[i].conjugate() / mag)


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
    """Distance from z to eigs, a non-empty 1-D array (ValueError unless all are finite)."""
    eigs = _complex_array("eigs", eigs, 1)
    return float(np.min(np.abs(eigs - _point("z", z))))


def _read_only(x: np.ndarray) -> np.ndarray:
    x.flags.writeable = False
    return x


class Operator:
    """A validated, read-only copy of a square matrix A whose spectrum,
    ||A||_2 and complex Schur form are computed on first use and kept,
    as is the factored shift A - zI of the last z asked for.  Every function
    that takes a matrix takes an Operator too (see ``as_matrix``), so calls
    sharing one compute each of these once; consecutive calls on bitwise-equal
    plain matrices share one Operator (see ``as_operator``)."""

    def __init__(self, m):
        self.matrix = _read_only(np.array(as_matrix(m)))
        self._last_shift = (None, None)

    def _shifted(self, z: complex, cfg: RunConfig) -> ShiftedSolver:
        """The ShiftedSolver of A - zI under cfg, kept for the next call with the
        same bits of z (the signs of its zero parts set bits of A - zI) and cfg."""
        key = (np.complex128(_point("z", z)).tobytes(), cfg)
        last, solver = self._last_shift  # one read, so threads never swap solvers
        if last != key:
            solver = ShiftedSolver(self, z, cfg)
            self._last_shift = key, solver
        return solver

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

    @cached_property
    def _diagonal(self) -> bool:
        """True when A has no nonzero entry off its diagonal."""
        return not (np.tril(self.matrix, -1).any() or np.triu(self.matrix, 1).any())

    @cached_property
    def _sigma_route(self):
        """``sigma_min_batch``'s route for a diagonal A or a large batch: a function of one
        chunk, NaN where it gives up, or None.  T is factored only where Lanczos pays."""
        a, n = self.matrix, self.matrix.shape[0]
        t = a if self._diagonal else self.schur if n >= _SCHUR_MIN_N else None
        if t is None:
            return None
        off = float(np.linalg.norm(np.triu(t, 1)))
        if off <= n * np.finfo(float).eps * np.linalg.norm(t):
            d = np.diagonal(t)[:, None]
            return lambda zs: np.abs(d - zs).min(axis=0) + off  # Weyl
        return partial(_inverse_lanczos, t)


def as_operator(obj) -> Operator:
    """obj itself if it is an Operator, else the Operator of the matrix obj:
    consecutive calls on plain matrices of the same shape and bytes share one."""
    if isinstance(obj, Operator):
        return obj
    a = as_matrix(obj)
    return _last_operator(a.shape, a.tobytes())


@lru_cache(maxsize=1)
def _last_operator(shape: tuple[int, int], data: bytes) -> Operator:
    """The Operator of the last plain matrix, by its shape and bytes; one entry."""
    return Operator(np.frombuffer(data, dtype=complex).reshape(shape))


class ShiftedSolver:
    """A factored shift A - zI for repeated solves.

    One SVD is computed at construction and reused for every
    right-hand side, for the norm, and for the maximizing vector.  It holds
    z, cfg, the matrix A - zI and its SVD, and nothing else: no copy of A and
    no Operator, so it leaves ``as_operator``'s slot alone.

    Raises:
        ValueError: z is not a finite complex number, or cfg not a RunConfig.
        NearSingularError: if sigma_min(A - zI) <= cfg.tol_singular.
    """

    def __init__(self, a, z: complex, cfg: RunConfig = DEFAULT_CONFIG):
        a = as_matrix(a)
        self.z = _point("z", z)
        self.cfg = _run_config(cfg)
        self.matrix = a - self.z * np.eye(a.shape[0])
        self.decomposition = svd(self.matrix, cfg)
        self.sigma_min = float(self.decomposition.values[-1])
        _check_singular(self.z, self.sigma_min, cfg)

    @property
    def norm(self) -> float:
        """The resolvent norm 1 / sigma_min."""
        return 1.0 / self.sigma_min

    def _tied(self, rel: float) -> np.ndarray:
        """Indices k, ascending, of the singular values s_k of A - zI tied with
        s_min = sigma_min: those with 1 - s_min/s_k < rel, a gap relative to the
        resolvent's singular value 1/s_min.  s_min > tol_singular >= 0 keeps it defined."""
        s = self.decomposition.values
        return np.flatnonzero(1.0 - s[-1] / s < rel)

    def min_left_vector(self) -> np.ndarray:
        """Unit psi with ||R psi|| = ||R||: the left singular vector of A - zI
        for sigma_min, phase-fixed by ``canonical_phase``.  Of the block
        ``_tied(_TIE_REL)`` the first vector is taken, so the identity yields e_0."""
        return canonical_phase(self.decomposition.left[:, self._tied(_TIE_REL)[0]])

    def degenerate(self) -> bool:
        """True when sigma_min is not alone in ``_tied(cfg.degeneracy_gap)``: the
        two largest singular values of the resolvent are within that gap relative."""
        return self._tied(self.cfg.degeneracy_gap).size > 1

    def solve(self, b) -> np.ndarray:
        """Solve (A - zI) x = b through the SVD factors, held to the
        residual criterion of ``_check_residual`` with ||A - zI||_2."""
        u, s, v = self.decomposition
        b = as_vector(b, self.matrix.shape[0], "b")
        x = v @ ((u.conj().T @ b) / s)
        _check_residual(self.matrix @ x - b, x, b, s[0], self.cfg)
        return x

    def solve_nearby(self, ws, b) -> np.ndarray:
        """Rows x_k with ((A - zI) - w_k I) x_k = b for the 1-D array ws, by one
        batched LU solve per chunk, each held to ``_check_residual`` with
        ||A - zI||_2 - |w_k| <= ||A - (z + w_k)I||_2.  sigma_min is 1-Lipschitz
        in the shift, so only when sigma_min(A - zI) - max|w_k| <= tol_singular
        + n·u·||A - zI||_2 does each chunk first take one batched SVD of the stack it
        solves; NearSingularError at the first z + w_k with sigma_min <= tol_singular."""
        n = self.matrix.shape[0]
        ws, b = _complex_array("ws", ws, 1), as_vector(b, n, "b")
        size, m_norm = np.abs(ws), float(self.decomposition.values[0])
        guard = self.sigma_min - size.max() <= self.cfg.tol_singular + n * np.finfo(float).eps * m_norm
        out = np.empty((ws.shape[0], n), dtype=complex)
        for part in _chunks(n, ws.shape[0]):
            stack = self.matrix - ws[part, None, None] * np.eye(n)
            if guard:
                for w, sigma in zip(ws[part], _sigma_min_svd(stack, self.z + ws[part])):
                    _check_singular(self.z + complex(w), float(sigma), self.cfg)
            try:
                x = out[part] = np.linalg.solve(stack, b[:, None])[..., 0]
            except np.linalg.LinAlgError as exc:
                raise DecompositionError(f"batched LU solve failed: {exc}") from exc
            r = (stack @ x[..., None])[..., 0] - b
            for rk, xk, norm_k in zip(r, x, m_norm - size[part]):
                _check_residual(rk, xk, b, norm_k, self.cfg)
        return out


def _check_singular(z: complex, sigma: float, cfg: RunConfig) -> None:
    if sigma <= cfg.tol_singular:
        msg = f"shift z={z} is within {cfg.tol_singular:.1e} of the spectrum"
        raise NearSingularError(f"{msg} (sigma_min={sigma:.3e})", sigma)


def _check_residual(r, x, b, norm: float, cfg: RunConfig) -> None:
    """The backward-stable criterion ||r|| <= tol_solve (norm ||x|| + ||b||)
    of a shifted solve Mx = b, with r = Mx - b and norm <= ||M||_2; the plain
    ||r|| <= tol_solve ||b|| is not attainable near the spectrum."""
    resid = float(np.linalg.norm(r))
    bound = cfg.tol_solve * (float(norm) * float(np.linalg.norm(x)) + float(np.linalg.norm(b)))
    if resid > bound:
        msg = f"shifted solve residual {resid:.3e} exceeds its bound {bound:.3e}"
        raise DecompositionError(msg)


def shifted_solve(a, z: complex, b, cfg: RunConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Solve (A - zI) x = b.  See ShiftedSolver for the contracts."""
    return as_operator(a)._shifted(z, cfg).solve(b)


def sigma_min_batch(a, zs) -> np.ndarray:
    """Smallest singular value of A - zI for every z in a 1-D array zs.

    A is a matrix or an Operator; ValueError unless zs is 1-D, maybe empty, of finite
    numbers.  The Operator picks the route once.  A diagonal A (no nonzero entry off
    the diagonal) takes min_i |a_ii - z|, exact, at any batch size.  From
    ``_SCHUR_MIN_POINTS`` points at n >= ``_SCHUR_MIN_N`` the Schur form A = Z T Z* is
    factored: if N = triu(T, 1) has ||N||_F <= n·u·||T||_F (a normal A),
    sigma_min(T - zI) is min_i |t_ii - z| + ||N||_F (Weyl); else inverse Lanczos on
    ((T - zI)*(T - zI))^-1 runs for all points in lockstep until the top Ritz value
    settles to 1e-14 relative, and gives up on points that overflow or do not settle in
    ``_LANCZOS_MAX_ITER`` steps.  Weyl and Lanczos agree with the SVD to
    1e-12·sigma + n·u·||A||_F and bound sigma_min(T - zI) from above; only T imports scipy.

    The batched SVD of the shifted matrices, the accuracy reference, answers every point
    that no route applies to or the route gave up on.  Never raises on singularity:
    exact hits store 0 (in Lanczos, z = some t_ii).  A route runs on chunks of points
    whose temporaries stay below about ``_CHUNK_BYTES``; the SVD's count points go in at
    least min(CPUs of the process, count, count·n // ``_SPLIT_MIN_ROWS``) chunks and, if
    that is 2 or more, on the thread pool, one worker pinned per CPU.  numpy's SVD
    factors each matrix alone (slices of >= 512 rows ran side by side), so the values
    are bitwise those of one thread.
    """
    op = as_operator(a)
    zs = _complex_array("zs", zs, 1, low=0)
    count, n = zs.shape[0], op.matrix.shape[0]
    route = op._sigma_route if count >= _SCHUR_MIN_POINTS or op._diagonal else None
    out, left = np.empty(count, dtype=float), slice(None)
    if route is not None:
        for part in _chunks(n, count):
            out[part] = route(zs[part])
        left = np.flatnonzero(np.isnan(out))
    todo, sigma = zs[left], out[left]  # views of zs and out when no route ran
    slices = min(todo.shape[0], todo.shape[0] * n // _SPLIT_MIN_ROWS)
    workers = min(slices, _workers()) if slices > 1 else 1
    run = _pool().map if workers > 1 else map

    def svd(part):
        return part, _sigma_min_svd(op.matrix - todo[part, None, None] * np.eye(n), todo[part])

    for part, values in run(svd, _chunks(n, todo.shape[0], workers)):
        sigma[part] = values
    out[left] = sigma
    return out


def _chunks(n: int, count: int, workers: int = 1):
    """At least one slice of range(count) per worker; workers' n x n stacks fit ``_CHUNK_BYTES``."""
    step = max(1, min(-(-count // workers), _CHUNK_BYTES // (16 * n * n * workers)))
    return (slice(start, start + step) for start in range(0, count, step))


def _workers() -> int:
    """How many CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@cache
def _pool():
    """The thread pool, made on first use (importing concurrent.futures takes
    about 5 ms), each worker pinned to its own CPU of the process where the OS
    allows; a forked child, without its parent's threads, makes its own."""
    from concurrent.futures import ThreadPoolExecutor

    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else None
    pin = partial(_pin, cycle(cpus)) if cpus else None
    return ThreadPoolExecutor(_workers(), thread_name_prefix="resgrow", initializer=pin)


def _pin(cpus) -> None:
    """Pin the calling worker thread to the next of cpus, or leave it unpinned if
    the OS refuses: a raising initializer would break the pool for good."""
    cpu = next(cpus)
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        pass


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pool.cache_clear)


# A diagonal A aside, the batched SVD beats factoring T plus inverse Lanczos below either
# size (tools/sigma_min_crossover.py); the Ritz value settling tolerance; the Lanczos step
# cap; the bound on one chunk's temporaries; the rows per slice from which the split SVD pays.
_SCHUR_MIN_N = 48
_SCHUR_MIN_POINTS = 64
_LANCZOS_REL = 1e-14
_LANCZOS_MAX_ITER = 24
_CHUNK_BYTES = 1 << 26
_SPLIT_MIN_ROWS = 512


def _solve_upper(t: np.ndarray, dg: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (T - z_p I) x_p = b_p for every column p by back substitution,
    with T upper triangular and dg[i, p] = t_ii - z_p."""
    x = np.empty_like(b)
    for i in range(t.shape[0] - 1, -1, -1):
        x[i] = (b[i] - t[i, i + 1 :] @ x[i + 1 :]) / dg[i]
    return x


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


def _sigma_min_svd(stack: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """sigma_min of each matrix of the stack, A - zs[k]I; if the batched driver fails, one matrix
    at a time, so one bad shift cannot poison its neighbors, and a failing one names its zs[k]."""
    try:
        return np.linalg.svd(stack, compute_uv=False)[:, -1]
    except np.linalg.LinAlgError:
        out = np.empty(zs.shape[0])
        for k, m in enumerate(stack):
            try:
                out[k] = np.linalg.svd(m, compute_uv=False)[-1]
            except np.linalg.LinAlgError as exc:
                raise DecompositionError(f"SVD failed to converge at z={zs[k]}: {exc}") from exc
        return out


def norms_from_sigma(s) -> np.ndarray:
    """Resolvent norms 1/sigma_min; sigma below 1/max-float (0 included) gives inf."""
    with np.errstate(divide="ignore", over="ignore"):
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
    pairs = _complex_array('"entries"', data["entries"], 2)
    if pairs.shape != (n * n, 2) or pairs.imag.any():
        raise ValueError(f'"entries" must hold exactly n*n = {n * n} [re, im] pairs of reals')
    values = np.empty(n * n, dtype=complex)
    # assigned by part, so signed zeros survive
    values.real, values.imag = pairs.real.T
    return as_matrix(values.reshape(n, n))


def save_matrix(path: str, m) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(matrix_to_dict(m)))


def load_matrix(path: str) -> np.ndarray:
    return matrix_from_dict(load_json(path, "matrix"))

