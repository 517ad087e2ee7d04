"""Rank-revealing QR kernels.

Four pivoting strategies over one Gram-Schmidt engine:

* ``qr_cp``   -- classical column pivoting (Golub): at each step the
  trailing column of largest 2-norm moves to the front of the
  unprocessed block.
* ``stewart2`` -- Stewart's reverse variant: the weakest column of the
  leading triangle, judged by the row norms of its inverse, moves to the
  back, shrinking the block one column per round.
* ``hybrid1`` / ``hybrid2`` -- alternate one column-pivot exchange and
  one inverse-row-norm exchange around a fixed block boundary until a
  full pass leaves the permutation unchanged (Chandrasekaran-Ipsen
  style hybrid). hybrid2 runs the same loop one column further out, so
  hybrid2 at rank p is hybrid1 at rank p+1.
* ``hybrid3`` -- repeats hybrid1 then hybrid2 until neither permutes,
  so both families of singular-value bounds hold at once.

The orthogonalization is modified Gram-Schmidt with one classical
reorthogonalization pass per promoted column. Every exchange is followed
by a from-scratch refactorization of the permuted matrix; Q and R are
never updated in place.

Diagonal entries of R are kept non-negative (they are residual norms).
A numerically zero pivot deflates: its diagonal entry becomes exactly 0
and the Q column is filled with a deterministic orthonormal completion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

# A swap happens only when the challenger beats the incumbent by this
# relative margin; equal-norm columns would otherwise trade places forever.
_SWAP_RTOL = 1e-12
# Residual norms at or below _DEFL_RTOL times the largest input column norm
# are treated as exact rank deficiency: _promote deflates such a pivot, and
# the hybrid column-pivot exchange reads such a trailing norm as exactly 0,
# so round-off past the numerical rank can never win an exchange.
_DEFL_RTOL = 1e-12
# Hybrid loops get 10*n full passes before giving up; termination is
# expected long before that on any float input.
_PASS_CAP_FACTOR = 10


class RrqrIterationError(RuntimeError):
    """A pivot loop exceeded its pass budget without reaching a fixed point."""


@dataclass(frozen=True)
class Permutation:
    """Column order: position t of the permuted matrix holds column order[t]."""

    order: tuple[int, ...]

    def __post_init__(self):
        order = tuple(int(i) for i in self.order)
        if sorted(order) != list(range(len(order))):
            raise ValueError("order is not a bijection on 0..n-1")
        object.__setattr__(self, "order", order)

    def as_matrix(self) -> np.ndarray:
        n = len(self.order)
        p = np.zeros((n, n))
        p[list(self.order), range(n)] = 1.0
        return p

    def apply(self, a: np.ndarray) -> np.ndarray:
        return np.asarray(a)[:, list(self.order)]


@dataclass(frozen=True)
class QrFactors:
    """Square orthonormal Q (K x K) and upper-trapezoidal R (K x n)."""

    q: np.ndarray
    r: np.ndarray
    diag: np.ndarray

    def __post_init__(self):
        for name in ("q", "r", "diag"):
            arr = np.array(getattr(self, name), dtype=float, copy=True)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class RrqrResult:
    """A decomposition blocked at an assumed rank p.

    r11_min_sv / r22_max_sv are the smallest singular value of the leading
    p x p block of R and the largest of the trailing block; they are the
    quantities the rank-revealing bounds constrain.
    """

    perm: Permutation
    factors: QrFactors
    assumed_rank: int
    r11_min_sv: float
    r22_max_sv: float
    passes: int = 0


def _as_matrix(a) -> np.ndarray:
    mat = np.asarray(a, dtype=float)
    if mat.ndim != 2 or mat.size == 0:
        raise ValueError(f"expected a nonempty 2-D matrix, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValueError("matrix contains NaN or Inf")
    return mat


def _deflation_tol(a: np.ndarray) -> float:
    colscale = float(np.linalg.norm(a, axis=0).max()) if a.size else 0.0
    return _DEFL_RTOL * colscale


def _completion_vector(q: np.ndarray, ncols: int) -> np.ndarray:
    """Lowest-index standard basis vector orthogonalized against q[:, :ncols].

    Some basis vector always sticks out of a proper subspace by at least
    1/sqrt(K) in norm, so the 0.5/sqrt(K) cutoff cannot reject all of them.
    """
    k = q.shape[0]
    qprev = q[:, :ncols]
    cutoff = 0.5 / np.sqrt(k)
    for idx in range(k):
        v = np.zeros(k)
        v[idx] = 1.0
        if ncols:
            v -= qprev @ (qprev.T @ v)
            v -= qprev @ (qprev.T @ v)
        norm = np.linalg.norm(v)
        if norm > cutoff:
            return v / norm
    raise RuntimeError("orthonormal completion not found")  # pragma: no cover


def _promote(q, r, work, i, n, defl_tol):
    """Turn work column i into q column i (reorthogonalized), eliminate it
    from the trailing columns, and record row i of R."""
    v = work[:, i].copy()
    if i:
        qprev = q[:, :i]
        c = qprev.T @ v
        v -= qprev @ c
        r[:i, i] += c
    gamma = np.linalg.norm(v)
    if gamma <= defl_tol:
        qcol = _completion_vector(q, i)
        r[i, i] = 0.0
    else:
        qcol = v / gamma
        r[i, i] = gamma
    q[:, i] = qcol
    if i + 1 < n:
        coef = qcol @ work[:, i + 1:]
        r[i, i + 1:] = coef
        work[:, i + 1:] -= np.outer(qcol, coef)
    work[:, i] = 0.0


def _swap(order, work, r, i, j):
    order[i], order[j] = order[j], order[i]
    work[:, [i, j]] = work[:, [j, i]]
    r[:, [i, j]] = r[:, [j, i]]


def _pick_challenger(scores: np.ndarray, incumbent: int) -> int:
    """Index whose score strictly beats the incumbent's, favoring low indices.

    Exact ties keep the incumbent; so do challengers within the relative
    swap tolerance. Infinite scores (inverse of a deflated pivot) always win
    over finite ones.
    """
    j = int(np.argmax(scores))
    best = float(scores[j])
    inc = float(scores[incumbent])
    if j == incumbent or best == inc:
        return incumbent
    if np.isinf(best):
        return j
    if best <= inc + _SWAP_RTOL * max(abs(best), abs(inc)):
        return incumbent
    return j


def _factor(a, order, steps, defl_tol, pivot=False, snap=None):
    """Partial Gram-Schmidt sweep of a[:, order] over the first `steps` columns.

    pivot=True applies the largest-trailing-norm exchange before each
    promotion (mutating `order` in place). snap=s additionally captures the
    trailing-column 2-norms right after s eliminations.

    Returns (q, r, work, snap_norms): K x steps orthonormal columns, the
    first `steps` rows of R in permuted order, the residual matrix after
    `steps` eliminations, and the requested norm snapshot (or None).
    """
    k, n = a.shape
    work = np.array(a[:, order], dtype=float)
    q = np.zeros((k, steps))
    r = np.zeros((steps, n))
    snap_norms = None
    for i in range(steps):
        if snap is not None and i == snap:
            snap_norms = np.linalg.norm(work[:, snap:], axis=0)
        if pivot:
            norms = np.linalg.norm(work[:, i:], axis=0)
            j = _pick_challenger(norms, 0)
            if j:
                _swap(order, work, r, i, i + j)
        _promote(q, r, work, i, n, defl_tol)
    if snap is not None and snap == steps:
        snap_norms = np.linalg.norm(work[:, snap:], axis=0)
    return q, r, work, snap_norms


def _full_factors(a, order, defl_tol) -> QrFactors:
    """Complete decomposition of a[:, order] with Q padded to K x K."""
    k, n = a.shape
    steps = min(k, n)
    q, r, _, _ = _factor(a, order, steps, defl_tol)
    if steps < k:
        qfull = np.zeros((k, k))
        qfull[:, :steps] = q
        for extra in range(steps, k):
            qfull[:, extra] = _completion_vector(qfull, extra)
        q = qfull
    if steps < k:
        rfull = np.zeros((k, n))
        rfull[:steps] = r
        r = rfull
    return QrFactors(q=q, r=r, diag=np.diagonal(r)[:steps].copy())


def _inverse_row_norms(r11: np.ndarray) -> np.ndarray:
    """2-norms of the rows of r11^{-1}; deflated (zero) pivots map to inf."""
    b = r11.shape[0]
    diag = np.diagonal(r11)
    if (diag == 0.0).any():
        out = np.zeros(b)
        out[diag == 0.0] = np.inf
        return out
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        inv_t = solve_triangular(r11, np.eye(b), trans="T", lower=False)
        norms = np.linalg.norm(inv_t, axis=0)
    return np.nan_to_num(norms, nan=np.inf, posinf=np.inf)


def _hybrid_sweeps(a, order, boundary, defl_tol, cap):
    """Drive the two-exchange loop at a fixed block boundary to a fixed point.

    Each pass (a) moves the strongest trailing column into the boundary
    position if it beats the one there, refactorizing, then (b) moves the
    weakest leading-block column to the boundary position. Returns
    (swap count, pass count); `order` is permuted in place.

    Trailing norms at or below defl_tol count as exactly 0 in exchange (a),
    the rule _promote uses to deflate. Past the numerical rank every
    trailing norm is round-off whose ordering changes with each
    refactorization; without the rule those values keep trading places and
    the loop never reaches a fixed point. With it, a column the engine
    would deflate cannot win an exchange and an all-zero tail keeps its
    incumbent. Above the tolerance the comparison is unchanged.
    """
    swaps = 0
    passes = 0
    while True:
        passes += 1
        if passes > cap:
            raise RrqrIterationError(
                f"no fixed point after {cap} passes at boundary {boundary}"
            )
        changed = False
        # Column-pivot exchange: trailing norms after boundary-1 eliminations.
        _, _, _, trail = _factor(a, order, boundary - 1, defl_tol,
                                 snap=boundary - 1)
        trail[trail <= defl_tol] = 0.0
        j = _pick_challenger(trail, 0)
        if j:
            i = boundary - 1
            order[i], order[i + j] = order[i + j], order[i]
            changed = True
            swaps += 1
        # Inverse-row-norm exchange on the refactorized leading block.
        _, r, _, _ = _factor(a, order, boundary, defl_tol)
        weak = _inverse_row_norms(r[:boundary, :boundary])
        j2 = _pick_challenger(weak, boundary - 1)
        if j2 != boundary - 1:
            order[j2], order[boundary - 1] = order[boundary - 1], order[j2]
            changed = True
            swaps += 1
        if not changed:
            return swaps, passes


def _qr_cp_order(a, steps, defl_tol) -> list[int]:
    order = list(range(a.shape[1]))
    _factor(a, order, steps, defl_tol, pivot=True)
    return order


def _blocked_result(a, order, p, passes, defl_tol) -> RrqrResult:
    factors = _full_factors(a, order, defl_tol)
    r = factors.r
    r11 = r[:p, :p]
    r22 = r[p:, p:]
    r11_min = float(singular_values(r11)[-1]) if r11.size else 0.0
    r22_max = float(singular_values(r22)[0]) if r22.size else 0.0
    return RrqrResult(perm=Permutation(tuple(order)), factors=factors,
                      assumed_rank=p, r11_min_sv=r11_min,
                      r22_max_sv=r22_max, passes=passes)


def _init_order(a, p, init, defl_tol) -> list[int]:
    if init is None:
        return _qr_cp_order(a, p, defl_tol)
    if isinstance(init, Permutation):
        order = list(init.order)
    else:
        order = list(Permutation(tuple(init)).order)
    if len(order) != a.shape[1]:
        raise ValueError(
            f"init permutation has length {len(order)}, matrix has "
            f"{a.shape[1]} columns"
        )
    return order


# ---------------------------------------------------------------------------
# public operations


def gs_qr(a) -> QrFactors:
    """Gram-Schmidt QR with one reorthogonalization pass per column.

    Q is always K x K; rank-deficient inputs deflate (gamma_i = 0) and the
    missing directions are filled with basis-vector completions, so the
    block segmentations downstream always see a full orthonormal frame.
    """
    mat = _as_matrix(a)
    return _full_factors(mat, list(range(mat.shape[1])), _deflation_tol(mat))


def qr_cp(a, max_steps: int) -> RrqrResult:
    """QR with column pivoting, run for `max_steps` greedy steps.

    At step s the trailing column of largest residual 2-norm is exchanged
    into position s (ties keep the lowest index) before elimination.
    """
    mat = _as_matrix(a)
    k, n = mat.shape
    if not 1 <= max_steps <= min(k, n):
        raise ValueError(
            f"max_steps must be in [1, {min(k, n)}], got {max_steps}"
        )
    tol = _deflation_tol(mat)
    order = _qr_cp_order(mat, max_steps, tol)
    return _blocked_result(mat, order, max_steps, passes=max_steps, defl_tol=tol)


def stewart2(factors: QrFactors, perm: Permutation | None, rank: int
             ) -> tuple[QrFactors, Permutation]:
    """Stewart's reverse pivoting on an existing decomposition.

    Starting from the full leading triangle, the column whose inverse row
    norm is largest (the weakest one) is exchanged into the last position
    of the current block, the matrix is refactorized, and the block shrinks
    by one; this repeats until only `rank` columns remain in front. Requires
    the leading triangle to be numerically invertible.
    """
    k, n = factors.r.shape
    size = min(k, n)
    if not 1 <= rank <= size:
        raise ValueError(f"rank must be in [1, {size}], got {rank}")
    if perm is None:
        perm = Permutation(tuple(range(n)))
    lead = factors.r[:size, :size]
    svs = singular_values(lead)
    if svs[-1] <= 1e-13 * svs[0]:
        raise ValueError(
            "leading block is numerically singular "
            f"(sv ratio {svs[-1]:.3e} / {svs[0]:.3e})"
        )
    # Work on Q R = A Pi so swaps compose with the incoming permutation.
    permuted = factors.q @ factors.r
    tol = _deflation_tol(permuted)
    order = list(range(n))
    for s in range(size - rank):
        b = size - s
        _, r, _, _ = _factor(permuted, order, b, tol)
        weak = _inverse_row_norms(r[:b, :b])
        j = _pick_challenger(weak, b - 1)
        if j != b - 1:
            order[j], order[b - 1] = order[b - 1], order[j]
    out = _full_factors(permuted, order, tol)
    total = Permutation(tuple(perm.order[t] for t in order))
    return out, total


def hybrid1(a, p: int, init: Permutation | None = None) -> RrqrResult:
    """Hybrid rank-revealing QR blocked at p.

    Alternates the column-pivot exchange across the (p-1)-split with the
    inverse-row-norm exchange on the leading p x p triangle until a full
    pass makes no permutation. At the fixed point

        sigma_min(R11) >= sigma_p(A)  / sqrt(p(n-p+1))
        sigma_max(R22) <= sigma_min(R11) * sqrt(p(n-p+1))

    with R11 = R[:p, :p] and R22 = R[p:, p:].
    """
    mat = _as_matrix(a)
    k, n = mat.shape
    if not 1 <= p <= min(k, n):
        raise ValueError(f"p must be in [1, {min(k, n)}], got {p}")
    tol = _deflation_tol(mat)
    order = _init_order(mat, p, init, tol)
    _, passes = _hybrid_sweeps(mat, order, p, tol, cap=_PASS_CAP_FACTOR * n)
    return _blocked_result(mat, order, p, passes, tol)


def hybrid2(a, p: int, init: Permutation | None = None) -> RrqrResult:
    """The hybrid loop run one column further out, reported at the p-split.

    Identical to hybrid1 at rank p+1 except that the result is blocked at
    p, which is where its guarantees live:

        sigma_max(R22) <= sigma_{p+1}(A) * sqrt((p+1)(n-p))
        sigma_min(R11) >= sigma_max(R22) / sqrt((p+1)(n-p))
    """
    mat = _as_matrix(a)
    k, n = mat.shape
    if not 1 <= p <= min(k, n) - 1:
        raise ValueError(f"p must be in [1, {min(k, n) - 1}], got {p}")
    tol = _deflation_tol(mat)
    order = _init_order(mat, p + 1, init, tol)
    _, passes = _hybrid_sweeps(mat, order, p + 1, tol,
                               cap=_PASS_CAP_FACTOR * n)
    return _blocked_result(mat, order, p, passes, tol)


def hybrid3(a, p: int, init: Permutation | None = None) -> RrqrResult:
    """hybrid1 then hybrid2, repeated until neither permutes.

    The halt state satisfies both bound families at the p-split:

        sigma_max(R22) <= sigma_{p+1}(A) * sqrt((p+1)(n-p))
        sigma_min(R11) >= sigma_p(A) / sqrt(p(n-p+1))
    """
    mat = _as_matrix(a)
    k, n = mat.shape
    if not 1 <= p <= min(k, n) - 1:
        raise ValueError(f"p must be in [1, {min(k, n) - 1}], got {p}")
    tol = _deflation_tol(mat)
    order = _init_order(mat, p, init, tol)
    cap = _PASS_CAP_FACTOR * n
    total_passes = 0
    for _ in range(cap):
        s1, p1 = _hybrid_sweeps(mat, order, p, tol, cap)
        s2, p2 = _hybrid_sweeps(mat, order, p + 1, tol, cap)
        total_passes += p1 + p2
        if s1 == 0 and s2 == 0:
            return _blocked_result(mat, order, p, total_passes, tol)
    raise RrqrIterationError(
        f"hybrid3 made {cap} rounds at rank {p} without converging"
    )


def singular_values(a) -> np.ndarray:
    """Descending singular values (LAPACK SVD, no singular vectors)."""
    mat = np.asarray(a, dtype=float)
    if mat.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {mat.shape}")
    if mat.size == 0:
        return np.zeros(min(mat.shape))
    if not np.isfinite(mat).all():
        raise ValueError("matrix contains NaN or Inf")
    return np.linalg.svd(mat, compute_uv=False)
