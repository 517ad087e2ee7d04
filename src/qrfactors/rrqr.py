"""Rank-revealing QR kernels.

Four pivoting strategies over one Householder QR (LAPACK, through
``scipy.linalg.qr``):

* ``qr_cp``   -- classical column pivoting (Golub): at each step the
  trailing column of largest 2-norm moves to the front of the
  unprocessed block. The pivots are LAPACK's ``dgeqp3``
  (Quintana-Orti, Sun and Bischof).
* ``stewart2`` -- Stewart's reverse variant: the weakest column of the
  leading triangle, judged by the row norms of its inverse, moves to the
  back, shrinking the block one column per round.
* ``hybrid1`` / ``hybrid2`` -- alternate one column-pivot exchange and
  one inverse-row-norm exchange around a fixed block boundary until a
  full pass leaves the permutation unchanged (Chandrasekaran-Ipsen
  style hybrid). hybrid2 runs the same loop one column further out, so
  hybrid2 at rank p is hybrid1 at rank p+1.
* ``hybrid3`` -- repeats hybrid1 then hybrid2 until neither permutes,
  so both families of singular-value bounds hold at once. A sweep at a
  boundary where the order is already known to be a fixed point is
  skipped, since it could only cost a pass.

The rank scan (``_scan_orders``) runs hybrid3's loop at ranks 1, 2, ...,
each warm-started from the previous rank's order, and reads the two
diagonal entries of R it needs from an R-only QR; the full frame (K x K
Q and block singular values) is built only for a result a caller
receives.

Every exchange is followed by a from-scratch factorization of the
permuted columns it reads; Q and R are never updated in place.

Diagonal entries of R are kept non-negative by flipping the matching
columns of Q. A pivot at or below the deflation tolerance deflates: its
diagonal entry becomes exactly 0. Q is orthonormal for any input, so a
deflated pivot needs no completion. Column norms are taken with
power-of-two scaling, so the pivot decisions do not change with the
matrix's scale until its entries near the ends of the float range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr, solve_triangular

# A swap happens only when the challenger beats the incumbent by this
# relative margin; equal-norm columns would otherwise trade places forever.
_SWAP_RTOL = 1e-12
# Residual norms at or below _DEFL_RTOL times the largest input column norm
# are treated as exact rank deficiency: _qr deflates such a pivot, and the
# hybrid column-pivot exchange reads such a trailing norm as exactly 0,
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


def _col_norms(a: np.ndarray) -> np.ndarray:
    """Column 2-norms whose squares neither overflow nor underflow.

    Each column is scaled by the power of two that brings its largest
    entry into [0.5, 1) and its norm is scaled back after. Both scalings
    are exact and the squares are summed down each column as
    np.linalg.norm sums them, so in-range norms are its bit for bit.
    """
    _, exp = np.frexp(np.abs(a).max(axis=0))
    scaled = np.ldexp(a, -exp)
    scaled *= scaled
    return np.ldexp(np.sqrt(np.add.reduce(scaled, axis=0)), exp)


def _deflation_tol(a: np.ndarray) -> float:
    return _DEFL_RTOL * float(_col_norms(a).max())


def _qr(a, cols, mode, defl_tol):
    """Householder QR of a[:, cols] as (q, r); q is None in mode "r".

    mode is "full" (K x K Q), "economic" or "r". R's diagonal is made
    non-negative by flipping the matching rows of R and columns of Q, and
    diagonal entries at or below defl_tol become exactly 0.
    """
    out = qr(a[:, cols], mode=mode, overwrite_a=True, check_finite=False)
    q = None if mode == "r" else out[0]
    r = out[-1]
    sign = np.where(np.diagonal(r) < 0.0, -1.0, 1.0)
    m = sign.size
    r[:m] *= sign[:, None]
    if q is not None:
        q[:, :m] *= sign
    idx = np.flatnonzero(np.diagonal(r) <= defl_tol)
    r[idx, idx] = 0.0
    return q, r


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


def _full_factors(a, order, defl_tol) -> QrFactors:
    """Complete decomposition of a[:, order] with a K x K Q."""
    q, r = _qr(a, order, "full", defl_tol)
    return QrFactors(q=q, r=r, diag=np.diagonal(r))


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
        norms = _col_norms(inv_t)
    return np.nan_to_num(norms, nan=np.inf, posinf=np.inf)


def _strong_exchange(a, order, boundary, defl_tol) -> bool:
    """Column-pivot exchange at a block boundary.

    Trailing norms are the residuals of a[:, order[boundary-1:]] after
    projecting out the first boundary-1 columns. The strongest one moves
    into position boundary-1 if it beats the column there. Norms at or
    below defl_tol count as exactly 0, the rule _qr uses to deflate: past
    the numerical rank every trailing norm is round-off whose ordering
    changes with each refactorization, and without the rule those values
    keep trading places and the loop never reaches a fixed point.
    Returns whether `order` changed.
    """
    i = boundary - 1
    rest = a[:, order[i:]]
    if i:
        q, _ = _qr(a, order[:i], "economic", defl_tol)
        # The gather above is column-major and the projection row-major;
        # subtracting from a row-major gather keeps the difference's
        # values and layout without a strided pass over both.
        proj = q @ (q.T @ rest)
        rest = np.subtract(a.take(order[i:], axis=1), proj, out=proj)
    trail = _col_norms(rest)
    trail[trail <= defl_tol] = 0.0
    j = _pick_challenger(trail, 0)
    order[i], order[i + j] = order[i + j], order[i]
    return j != 0


def _weak_exchange(a, order, b, defl_tol) -> bool:
    """Inverse-row-norm exchange: the weakest column of the leading b x b
    triangle of a[:, order] moves into position b-1. Returns whether
    `order` changed."""
    _, r = _qr(a, order[:b], "r", defl_tol)
    j = _pick_challenger(_inverse_row_norms(r[:b, :b]), b - 1)
    order[j], order[b - 1] = order[b - 1], order[j]
    return j != b - 1


def _hybrid_sweeps(a, order, boundary, defl_tol, cap):
    """Drive the two-exchange loop at a fixed block boundary to a fixed point.

    Each pass runs the column-pivot exchange, then the inverse-row-norm
    exchange on the refactorized leading block. Returns (swap count, pass
    count); `order` is permuted in place.
    """
    swaps = 0
    passes = 0
    while True:
        passes += 1
        if passes > cap:
            raise RrqrIterationError(
                f"no fixed point after {cap} passes at boundary {boundary}"
            )
        moved = (_strong_exchange(a, order, boundary, defl_tol)
                 + _weak_exchange(a, order, boundary, defl_tol))
        if not moved:
            return swaps, passes
        swaps += moved


def _fixed_point(a, order, p, defl_tol, cap, fixed_at_p=False) -> int:
    """Alternate hybrid sweeps at boundaries p and p+1 until neither permutes.

    A sweep ends at a fixed point of its boundary. No sweep runs at a
    boundary where `order` is already known to be fixed, since it could
    only cost a pass: at p when fixed_at_p, at the other boundary after a
    sweep that made no swap, and at p after a sweep at p+1 that left the
    first p columns in place. Boundary p's exchanges read only those
    columns and the set of the columns behind them, each column's norm
    being computed alike wherever it sits. Every order visited is one the
    plain alternation visits, so the final order is the same. Returns the
    pass count; `order` is permuted in place.
    """
    boundary = p + 1 if fixed_at_p else p
    other_fixed = fixed_at_p
    passes = 0
    for _ in range(2 * cap):
        head = order[:p]
        try:
            swaps, used = _hybrid_sweeps(a, order, boundary, defl_tol, cap)
        except RrqrIterationError:
            passes += cap
            break
        passes += used
        if other_fixed and (not swaps or (boundary > p and order[:p] == head)):
            return passes
        other_fixed = True
        boundary = 2 * p + 1 - boundary
    raise RrqrIterationError(
        f"no fixed point at rank {p} (boundaries {p} and {p + 1}) after "
        f"{passes} passes, the last sweep at boundary {boundary}"
    )


def _qr_cp_order(a, steps) -> list[int]:
    """The first `steps` pivots of dgeqp3, replayed as swaps on the
    identity order, so the columns past `steps` sit where a `steps`-step
    greedy loop leaves them."""
    _, piv = qr(a, mode="r", pivoting=True, check_finite=False)
    order = list(range(a.shape[1]))
    for i, col in enumerate(piv[:steps]):
        j = order.index(col)
        order[i], order[j] = order[j], order[i]
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


def _init_order(a, p, init) -> list[int]:
    if init is None:
        return _qr_cp_order(a, p)
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


def _hybrid_start(a, p, init, spare, seed):
    """Checked matrix, starting order, deflation tolerance and pass cap.

    p must leave `spare` columns of the leading triangle past it; without
    init the order is qr_cp's after `seed` steps.
    """
    mat = _as_matrix(a)
    k, n = mat.shape
    top = min(k, n) - spare
    if not 1 <= p <= top:
        raise ValueError(f"p must be in [1, {top}], got {p}")
    return (mat, _init_order(mat, seed, init), _deflation_tol(mat),
            _PASS_CAP_FACTOR * n)


def _scan_orders(mat, p_cap) -> list[tuple[float, float, int]]:
    """The rank scan's hybrid3 runs at ranks 1..p_cap, each warm-started.

    Rank 1 starts from qr_cp's first pivot, as hybrid3(mat, 1) does; rank
    i from rank i-1's final order, which is already a fixed point at
    boundary i, so its loop opens at boundary i+1. gamma_i and gamma_{i+1}
    come from an R-only QR, so no Q and no singular value is built. It
    spans every column although gamma_{i+1} depends only on the first
    i+1: LAPACK's blocking and the BLAS kernels round a column differently
    at another matrix width, and the full width keeps gamma bit for bit
    that of the full decomposition. mat must already be checked
    (_as_matrix). Returns (gamma_i, gamma_{i+1}, passes) per rank.
    """
    tol = _deflation_tol(mat)
    cap = _PASS_CAP_FACTOR * mat.shape[1]
    order = _qr_cp_order(mat, 1)
    rows = []
    for i in range(1, p_cap + 1):
        passes = _fixed_point(mat, order, i, tol, cap, fixed_at_p=i > 1)
        _, r = _qr(mat, order, "r", tol)
        rows.append((float(r[i - 1, i - 1]), float(r[i, i]), passes))
    return rows


# ---------------------------------------------------------------------------
# public operations


def gs_qr(a) -> QrFactors:
    """Unpivoted Householder QR (LAPACK dgeqrf).

    The name is kept for the API and the CLI's ``--alg gsqr``. Q is always
    K x K and orthonormal; rank-deficient inputs deflate (gamma_i = 0),
    so the block segmentations downstream always see a full orthonormal
    frame.
    """
    mat = _as_matrix(a)
    return _full_factors(mat, list(range(mat.shape[1])), _deflation_tol(mat))


def qr_cp(a, max_steps: int) -> RrqrResult:
    """QR with column pivoting, run for `max_steps` greedy steps.

    At step s the trailing column of largest residual 2-norm is exchanged
    into position s before elimination; exact ties keep the lowest
    index. The pivots come from LAPACK dgeqp3, whose choice between
    near-ties (within 1e-12 relative) is a strict argmax of its updated
    norms, as in the naive refactorizing oracle; columns past `max_steps`
    are left where the greedy loop's swaps put them.
    """
    mat = _as_matrix(a)
    k, n = mat.shape
    if not 1 <= max_steps <= min(k, n):
        raise ValueError(
            f"max_steps must be in [1, {min(k, n)}], got {max_steps}"
        )
    order = _qr_cp_order(mat, max_steps)
    return _blocked_result(mat, order, max_steps, passes=max_steps,
                           defl_tol=_deflation_tol(mat))


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
    for b in range(size, rank, -1):
        _weak_exchange(permuted, order, b, tol)
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
    mat, order, tol, cap = _hybrid_start(a, p, init, spare=0, seed=p)
    _, passes = _hybrid_sweeps(mat, order, p, tol, cap)
    return _blocked_result(mat, order, p, passes, tol)


def hybrid2(a, p: int, init: Permutation | None = None) -> RrqrResult:
    """The hybrid loop run one column further out, reported at the p-split.

    Identical to hybrid1 at rank p+1 except that the result is blocked at
    p, which is where its guarantees live:

        sigma_max(R22) <= sigma_{p+1}(A) * sqrt((p+1)(n-p))
        sigma_min(R11) >= sigma_max(R22) / sqrt((p+1)(n-p))
    """
    mat, order, tol, cap = _hybrid_start(a, p, init, spare=1, seed=p + 1)
    _, passes = _hybrid_sweeps(mat, order, p + 1, tol, cap)
    return _blocked_result(mat, order, p, passes, tol)


def hybrid3(a, p: int, init: Permutation | None = None) -> RrqrResult:
    """hybrid1 then hybrid2, repeated until neither permutes.

    The halt state satisfies both bound families at the p-split:

        sigma_max(R22) <= sigma_{p+1}(A) * sqrt((p+1)(n-p))
        sigma_min(R11) >= sigma_p(A) / sqrt(p(n-p+1))

    No sweep runs whose outcome is already known: the loop stops at the
    first zero-swap sweep after a sweep at the other boundary, and after
    a sweep at p+1 that left the first p columns in place (boundary p
    then still holds). `passes` counts only the sweeps run, so it can be
    lower than a loop confirming both boundaries in a last round; the
    permutation and factors are the same.
    """
    mat, order, tol, cap = _hybrid_start(a, p, init, spare=1, seed=p)
    passes = _fixed_point(mat, order, p, tol, cap)
    return _blocked_result(mat, order, p, passes, tol)


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
