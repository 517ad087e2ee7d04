"""Rank-revealing QR kernels.

Four pivoting strategies over one Householder QR (LAPACK dgeqrf and
dorgqr, with ``scipy.linalg.qr``'s bits):

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
diagonal entries of R it needs straight from dgeqrf's packed output; the
full frame (K x K Q and block singular values) is built only for a
returned RrqrResult.
It hands back each rank's final order, a fixed point of both of its
boundaries, and ``_loading_basis`` reads Q[:, :p] from one QR of the
order at p as it is, with no second sweep. The scan's gammas and the
basis read the same columns, LAPACK's first panel of the order
(``_first_panel``); sigma_max(R22) is left to ``_r22_max_sv``, for a
caller that reads it.

Q and R are never updated in place; each exchange factorizes the columns
it reads, and every leading triangle's dgeqrf goes through the search's
one-entry cache (``_PivotSearch.leading_packed``): a column-pivot
exchange reading exactly the columns the last inverse-row-norm exchange
factorized takes its Q from that output (``leading_q``), and stewart2's
first exchange takes R11 from its singularity guard's. A sweep
ends at the first pass whose inverse-row-norm exchange moves nothing:
the pass after it could only confirm the order, so it is counted, not
run. The column-pivot exchange downdates the column sums of squares by
the leading columns' projection, brackets each result with a rigorous
rounding bound, and projects the whole matrix only when the brackets
cannot settle its pick (``_strong_exchange``, ``_downdated_pick``); at
boundary 1, which projects nothing, it picks on the square roots of the
sums themselves. Past an exact rank the downdate cannot settle
anything, since the trailing norms are round-off, so the first
projection that reads every trailing norm as 0 is kept on the search
(``_PivotSearch.tail``), and a later exchange whose leading span holds
the recorded basis to within a bound certifies from it that it would
read 0 too, and keeps its incumbent without projecting
(``_tail_certified``). Every pick is the one the projected norms make,
so every order is. The inverse-row-norm exchange reads R11 from
the packed factor, inverts it with dtrtri and takes each row norm from
dlauum's diagonal; a deflated pivot, or a row whose norm overflows,
reads inf (``_inverse_row_norms``). The QRs call LAPACK directly, with
the arguments ``scipy.linalg.qr`` would pass them; a QR of at most 32
columns, which LAPACK factors unblocked whatever its workspace, gets
the minimum workspace and no size query (``_lapack``).

Diagonal entries of R are kept non-negative by flipping the matching
columns of Q. A pivot at or below the deflation tolerance deflates: its
diagonal entry becomes exactly 0. Q is orthonormal for any input, so a
deflated pivot needs no completion. Every strategy reads its matrix
through one pivot search (``_PivotSearch``), which owns its scale: it is
checked and brought to unit scale once by powers of two, in one pass
that also sums each column's squares, with one deflation tolerance, and
R, gammas and singular values leave the module through its one
saturating map-back (``unscaled``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr
from scipy.linalg.blas import dnrm2
from scipy.linalg.lapack import dgeqrf, dlauum, dorgqr, dtrtri

from .tsdata import _frozen, _rescaled

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
# dgeqrf's and dorgqr's block size (ILAENV's NB): a panel of at most this
# many columns is factored unblocked, by dgeqr2 and dorg2r, whatever the
# workspace.
_UNBLOCKED = 32
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


class RrqrIterationError(RuntimeError):
    """A pivot loop exceeded its pass budget without reaching a fixed point.

    Raised by a rank's two-boundary loop (the scan, hybrid3), it carries
    what a replay needs: `rank`, the `boundary` of the last sweep, the
    `passes` spent at the rank and the column `order` at the raise. They
    are None where the raiser knows none of them (a hybrid1 or hybrid2
    sweep).
    """

    def __init__(self, message, *, rank=None, boundary=None, passes=None,
                 order=None):
        super().__init__(message)
        self.rank = rank
        self.boundary = boundary
        self.passes = passes
        self.order = order


@dataclass(frozen=True)
class Permutation:
    """Column order: position t of the permuted matrix holds column order[t]."""

    order: tuple[int, ...]

    def __post_init__(self):
        order = np.asarray(self.order, dtype=np.intp)
        if not np.array_equal(np.sort(order), np.arange(order.size)):
            raise ValueError("order is not a bijection on 0..n-1")
        object.__setattr__(self, "order", tuple(order.tolist()))


@dataclass(frozen=True)
class QrFactors:
    """Square orthonormal Q (K x K) and upper-trapezoidal R (K x n)."""

    q: np.ndarray
    r: np.ndarray
    diag: np.ndarray

    def __post_init__(self):
        for name in ("q", "r", "diag"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))


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


class _PivotSearch:
    """A checked matrix, as every factorization here reads it, and the one
    owner of its scale.

    The matrix is `a` times 2^exp: the input (times the caller's 2^exp)
    scaled by the power of two above its largest |entry|, whose max and
    min carry any NaN or Inf, then by the one above that copy's largest
    column norm. `sums`, the column sums of squares, come from one pass
    over the first scaling, where no square can overflow and one can
    underflow only far below the deflation tolerance; the largest gives
    the second scaling, and both are then brought to it in place. `tol`
    is the deflation tolerance at that scale. Both scalings are exact,
    so R and every pivot decision on the copy are the matrix's, scaled,
    bit for bit; what bears the scale leaves through `unscaled`. The
    search lives as long as one scan and the basis sweep after it, or one
    strategy call. `last_qr` holds the last (columns, dgeqrf output) of a
    leading triangle until leading_q spends it. `tail` holds the last
    column-pivot exchange whose projection read every trailing norm as
    0: (Q0, x0, delta0), its K x i0 Q1, the residual norms of every
    column and ||fl(Q0^T Q0) - I||_F. A later exchange certifies from it,
    with no projection, that it too would read 0 (_tail_certified holds
    the bound).
    """

    def __init__(self, a, exp=0):
        mat = np.asarray(a, dtype=float)
        if mat.ndim != 2 or mat.size == 0:
            raise ValueError(f"expected a nonempty 2-D matrix, got shape {mat.shape}")
        peak = float(np.maximum(mat.max(), -mat.min()))
        if not math.isfinite(peak):
            raise ValueError("matrix contains NaN or Inf")
        shift = -math.frexp(peak)[1]
        self.a = np.ldexp(mat, shift)
        self.sums = np.einsum("ij,ij->j", self.a, self.a)
        top, top_exp = math.frexp(math.sqrt(self.sums.max()))
        # from the input again, so each entry is rounded once, at its scale
        np.ldexp(mat, shift - top_exp, out=self.a)
        np.ldexp(self.sums, -2 * top_exp, out=self.sums)
        self.exp = exp - shift + top_exp
        self.tol = _DEFL_RTOL * top
        self.last_qr = None
        self.tail = None

    def unscaled(self, x):
        """x, read at the copy's scale, at the matrix's (saturating)."""
        return _rescaled(x, self.exp)

    def leading_packed(self, cols):
        """_packed(self.a, cols), kept as last_qr, or last_qr's if it
        factorized exactly `cols`."""
        last = self.last_qr
        if last is None or last[0] != cols:
            last = self.last_qr = cols, _packed(self.a, cols)
        return last[1]

    def leading_q(self, cols):
        """Q of the economic QR of self.a[:, cols] (K >= len(cols)), with
        the column signs LAPACK leaves: _qr's Q with some columns negated,
        which the column-pivot exchange can take, since negating a column
        of Q negates its products exactly and moves no projection or norm.
        dorgqr overwrites leading_packed's dgeqrf output, so last_qr is
        spent."""
        packed = self.leading_packed(cols)
        self.last_qr = None
        return _lapack(dorgqr, *packed)[0]


def _lapack(routine, a, *args):
    """routine(a, *args), overwriting a, with scipy.linalg.qr's bits.

    dgeqrf's and dorgqr's blocking, and so their bits, follow the
    workspace size, which scipy.linalg's safecall asks LAPACK for. A
    panel of at most _UNBLOCKED columns is factored unblocked at any
    size, so it gets the minimum, max(1, n), and no query is made; a
    wider one gets the size LAPACK asks for, as scipy passes it.
    """
    n = a.shape[1]
    lwork = (max(1, n) if n <= _UNBLOCKED
             else int(routine(a, *args, lwork=-1)[-2][0]))
    *out, _, info = routine(a, *args, lwork=lwork, overwrite_a=1)
    if info:
        raise ValueError(f"illegal value in argument {-info} of a LAPACK QR")
    return out


def _packed(a, cols):
    """dgeqrf of a[:, cols] as (packed, tau): R, with LAPACK's signs, in
    the upper triangle of packed and the reflectors below it."""
    return _lapack(dgeqrf, a.T[cols, :].T)


def _first_panel(order, i):
    """The columns of `order` a QR reads for R[:i, :i] and Q[:, :i] with
    the full decomposition's bits: the first _UNBLOCKED while i <=
    _UNBLOCKED / 2, past that all of them.

    _UNBLOCKED is dgeqrf's block size: at min(K, n) >= 128 the
    full-width QR factors its first 32 columns with dgeqr2 alone, exactly
    as a 32-column QR does. Below that the full width runs unblocked
    dgeqr2 over every column, and the BLAS dgemv rounds the last few
    columns of a narrow call differently: on sim1 panels at K = 30, 50
    and 100, gamma_30 to gamma_32 moved by up to 3e-12 relative while
    gamma_1 to gamma_29 matched, so the panel is read only well short of
    its last columns.
    """
    return order[:_UNBLOCKED] if 2 * i <= _UNBLOCKED else order


def _signed(r, q, defl_tol):
    """r and q as _qr returns them: R's diagonal made non-negative by
    flipping the matching rows of r and columns of q, and diagonal
    entries at or below defl_tol made exactly 0. Both act entrywise, so
    a leading block's bits are those of the whole R."""
    sign = np.where(np.diagonal(r) < 0.0, -1.0, 1.0)
    m = sign.size
    r[:m] *= sign[:, None]
    q[:, :m] *= sign
    idx = np.flatnonzero(np.diagonal(r) <= defl_tol)
    r[idx, idx] = 0.0
    return r


def _qr(a, cols, mode, defl_tol):
    """Householder QR of a[:, cols] as (q, r), signed and deflated
    (_signed).

    mode is "full" (K x K Q) or "economic"; the shapes, layouts and bits
    are scipy.linalg.qr's, whose dgeqrf and dorgqr calls this makes
    without its wrapper.
    """
    k, m = a.shape[0], len(cols)
    packed, tau = _packed(a, cols)
    r = np.triu(packed if mode == "full" else packed[:min(k, m)])
    if k < m or mode == "economic":
        q = _lapack(dorgqr, packed[:, :min(k, m)], tau)[0]
    else:
        full = np.empty((k, k), order="F")
        full[:, :m] = packed
        q = _lapack(dorgqr, full, tau)[0]
    return q, _signed(r, q, defl_tol)


def _beats(best: float, inc: float) -> bool:
    """Whether a challenger scoring `best` displaces an incumbent scoring
    `inc`: it must beat it by the relative swap tolerance, and an infinite
    score (inverse of a deflated pivot) beats any finite one. For
    non-negative scores the outcome can only turn from keep to swap as
    `best` grows or `inc` falls."""
    if best == inc:
        return False
    return (math.isinf(best)
            or best > inc + _SWAP_RTOL * max(abs(best), abs(inc)))


def _pick_challenger(scores: np.ndarray, incumbent: int) -> int:
    """Index whose score strictly beats the incumbent's, favoring low indices.

    Exact ties keep the incumbent; so do challengers within the relative
    swap tolerance (_beats).
    """
    j = int(scores.argmax())
    if j != incumbent and _beats(float(scores[j]), float(scores[incumbent])):
        return j
    return incumbent


def _full_factors(search, order) -> tuple[QrFactors, np.ndarray]:
    """K x K Q and R of the matrix's columns `order`, R at its scale,
    and R at the search's unit scale."""
    q, r = _qr(search.a, order, "full", search.tol)
    big = search.unscaled(r)
    return QrFactors(q=q, r=big, diag=np.diagonal(big)), r


def _inverse_row_norms(r11: np.ndarray, tol: float) -> np.ndarray:
    """2-norms of the rows of R^{-1}, R the upper triangle of r11 (dgeqrf's
    packed output: LAPACK's signs, the reflectors below, unread).

    A row sign flip of R flips a column of R^{-1}, so no norm depends on
    LAPACK's signs. A pivot with |r_tt| <= tol is deflated: its row reads
    inf and every other row 0, so the exchange moves the first deflated
    column back. Otherwise R^{-1} comes from dtrtri and each norm is the
    square root of a diagonal entry of dlauum(R^{-1}), the row's plain sum
    of squares; a row whose square overflows (past about 1e154 at unit
    scale, far beyond the deflation tolerance) reads inf, as a deflated
    pivot's does, and so does a NaN from an inverse that overflowed.
    """
    weak = np.abs(r11.diagonal()) <= tol
    if weak.any():
        return np.where(weak, np.inf, 0.0)
    norms = np.sqrt(dlauum(dtrtri(r11)[0], overwrite_c=1)[0].diagonal())
    norms[np.isnan(norms)] = np.inf
    return norms


def _residual_norms(a, q, c) -> np.ndarray:
    """Column norms of a - q @ c, with c = q.T @ a: a's columns less their
    projection on q's span.

    The whole matrix is projected in its own column order, so nothing is
    gathered and each column's norm is the same bit for bit wherever an
    order puts it, the premise of _fixed_point's third skip; a gather's
    products round a few columns differently with each order, by an ulp
    or so. The squares are summed plainly: a is unit-scaled
    (_PivotSearch), so one can underflow only far below the deflation
    tolerance, where the exchange reads 0.
    """
    proj = q @ c
    resid = np.subtract(a, proj, out=proj)
    resid *= resid
    return np.sqrt(np.add.reduce(resid, axis=0))


def _defect(q) -> float:
    """||fl(q^T q) - I||_F, q's measured departure from orthonormality."""
    gram = q.T @ q
    gram.flat[::q.shape[1] + 1] -= 1.0
    return math.sqrt(np.vdot(gram, gram))


def _tail_certified(search, order, i, q) -> bool:
    """Whether the column-pivot exchange at boundary i+1, i >= 1, with
    Q1 = q (K x i) the economic Q of order[:i], would read every
    trailing norm as 0, certified from the search's tail record
    (search.tail) with no projection.

    The record (Q0, x0, delta0) comes from an earlier exchange on the
    search whose exact path read every trailing norm as 0: its Q1, K x
    i0; x0_j = fl(||fl(a_j - fl(Q0 c0_j))||), c0 = fl(Q0^T a), the
    residual norm of every column j; and delta0 = ||fl(Q0^T Q0) - I||_F.
    With tau = ||fl(Q0 - fl(Q1 fl(Q1^T Q0)))||_F, the part of the
    recorded basis outside the new leading span, delta =
    ||fl(Q1^T Q1) - I||_F + delta0 and s_j = fl(||a_j||^2)
    (search.sums), the norm the exact path computes, x_j =
    fl(||fl(a_j - fl(Q1 c_j))||) with c = fl(Q1^T a), is at most

        B_j = (1 + 2 delta) x0_j + (tau + 2 delta + rho) sqrt(s_j),
        rho = ((K + i)(sqrt(i) + sqrt(i i0)) + 3 K (i0 + 2) / 4
               + i0^1.5 + 9) eps,

    whenever tau <= 1/2; the check is made only then. Write a_j =
    Q0 c0_j + e_j exactly. Then a_j - Q1 Q1^T a_j = (I - Q1 Q1^T) Q0
    c0_j + (I - Q1 Q1^T) e_j, where I - Q1 Q1^T has 2-norm max(1,
    ||Q1^T Q1 - I||) <= 1 + 2 delta (its eigenvalues are 1 and those of
    I - Q1^T Q1) and ||(I - Q1 Q1^T) Q0||_2 is at most the exact value
    of tau. To first order in u = eps/2, where a dot product of length m
    errs by at most m u times that of the absolute values (Higham,
    section 3.1), in units of u sqrt(s_j):

    * c's dot products, d_j = c_j - Q1^T a_j: ||Q1 d_j|| <= K sqrt(i),
      as ||Q1||_F ~ sqrt(i); the product fl(Q1 c_j): i^1.5; the
      difference: 1; the sum of K squares and its square root: K/2 + 2,
      relative to a norm at most ||a_j||;
    * e_j against x0_j: the record's product and difference, i0^1.5 +
      1, and its sum of squares, K/2 + 3 relative to x0_j, itself at
      most about ||a_j||;
    * tau's exact value against tau: the products fl(Q1^T Q0) and Q1
      times it, (K + i) sqrt(i i0) (each entry of fl(Q1^T Q0) errs by
      at most K u); the difference and the sum of K i0 squares, K i0 / 2
      + 2 relative to tau <= 1/2, so K i0 / 4 + 1;
    * ||c0_j|| <= (1 + ||Q0^T Q0 - I|| / 2 + K sqrt(i0) u) ||a_j|| and
      ||a_j|| <= (1 + (K/2 + 1) u) sqrt(s_j): at tau <= 1/2, K sqrt(i0)
      / 2 + K/4 + 1/2, and tau ||Q0^T Q0 - I|| / 2, which is at most
      2 delta plus K i0 / 4 for delta0's own rounding.

    Their sum is at most (K + i)(sqrt(i) + sqrt(i i0)) + K (5/4 + i0/2
    + sqrt(i0)/2) + i0^1.5 + 9 <= rho / (2u), half of rho; the other
    half covers second-order terms and the rounding of B_j itself. A
    square that underflows errs by at most 2^-1075, so a norm by at most
    sqrt(K) 2^-537, about 1e-160: that matters only where B_j is that
    close to tol (at least 5e-13 on a nonzero matrix), so for a column
    with sqrt(s_j) above 1e-140, where the other half of rho covers it.
    So where B_j <= tol for every trailing column, each x_j is at or
    below tol, the exact path reads every trailing norm as 0, and its
    pick is the incumbent's: no swap. Leading columns neither win nor
    block, so their bounds are not read.
    """
    q0, x0, defect0 = search.tail
    k, i0 = q0.shape
    gap = q0 - q @ (q.T @ q0)
    tau = math.sqrt(np.vdot(gap, gap))
    if tau > 0.5:
        return False
    delta = _defect(q) + defect0
    rho = ((k + i) * (math.sqrt(i) + math.sqrt(i * i0))
           + 0.75 * k * (i0 + 2) + i0 ** 1.5 + 9) * _EPS
    bound = (1.0 + 2.0 * delta) * x0
    bound += (tau + 2.0 * delta + rho) * np.sqrt(search.sums)
    bound[order[:i]] = 0.0
    return bool(bound.max() <= search.tol)


def _downdated_pick(search, order, i, q, c):
    """The column-pivot exchange's pick at boundary i+1, i >= 1 (an
    offset into order[i:], 0 for the incumbent) when downdated norms make
    it certain, else None.

    With Q1 = q (K x i) and c = fl(Q1^T a), the exact path's squared
    trailing norm x_j = fl(||fl(a_j - fl(Q1 c_j))||^2) and the downdate
    t_j = fl(s_j - ||c_j||^2), s_j = fl(||a_j||^2) (search.sums), differ
    by rounding alone. With F = Q1^T Q1 - I and d_j = c_j - Q1^T a_j,
    exactly ||a_j - Q1 c_j||^2 = s_j - ||c_j||^2 + 2 c_j^T d_j
    + c_j^T F c_j, so to first order in u = eps/2:

    * the dot products of length K: |d_j| <= K u |Q1|^T |a_j|, and
      |2 c_j^T d_j| <= 2 sqrt(i) K u s_j, as ||Q1||_F ~ sqrt(i);
    * Q1's non-orthogonality: |c_j^T F c_j| <= ||F|| s_j, where
      ||F|| <= ||fl(Q1^T Q1) - I||_F + K i u, measured here, not assumed;
    * the exact path's product Q1 c_j, difference and sum of K squares:
      (K + 2 i^1.5 + 2) u s_j;
    * the downdate's sums and difference: (K + i + 1) u s_j.

    Their sum is at most half of

        E_j = 2 (||fl(Q1^T Q1) - I||_F + (i + sqrt(i) + 1)(K + i) eps) s_j,

    so in E_j = C (K + i) eps s_j, plus the measured term, C is
    2(i + sqrt(i) + 1): no fixed C covers the 2 sqrt(i) K term at every
    i. The other half covers second-order terms and the rounding of
    t_j +- E_j itself. A subnormal square's absolute error is
    covered by adding the smallest normal float. So x_j lies in
    [t_j - E_j, t_j + E_j], and since sqrt, the deflation rule (norms at
    or below tol read 0) and _beats are all monotone, the exact path's
    norm of column j lies in [lo_j, hi_j], the square roots of those
    ends. The pick is certain, and equal to the exact path's, when the
    argmax j* of t clears the deflation threshold (lo_j* > tol), every
    other column's hi lies below lo_j*, and the swap test against the
    incumbent has one outcome at both corners of the two intervals.
    Exact ties, norms within the swap tolerance and trailing norms past
    the numerical rank, which are round-off, never pass.
    """
    k = q.shape[0]
    rel = 2.0 * (_defect(q) + (i + math.sqrt(i) + 1) * (k + i) * _EPS)
    # Every column at once, in the matrix's own order; the leading ones,
    # projected out, can neither win nor block.
    trail = search.sums - np.einsum("ij,ij->j", c, c)
    err = rel * search.sums + _TINY
    hi = np.sqrt(trail + err)
    trail[order[:i]] = -np.inf
    hi[order[:i]] = 0.0
    best = int(trail.argmax())
    best_lo = math.sqrt(max(trail[best] - err[best], 0.0))
    if best_lo <= search.tol or np.count_nonzero(hi >= best_lo) > 1:
        return None
    inc = order[i]
    if best == inc:
        return 0
    inc_lo = math.sqrt(max(trail[inc] - err[inc], 0.0))
    inc_lo, inc_hi = (x if x > search.tol else 0.0
                      for x in (inc_lo, float(hi[inc])))
    swap = _beats(best_lo, inc_hi)
    if swap != _beats(float(hi[best]), inc_lo):
        return None
    return order.index(best, i) - i if swap else 0


def _strong_exchange(search, order, boundary) -> bool:
    """Column-pivot exchange at a block boundary.

    Trailing norms are those of search.a[:, order[boundary-1:]] less
    their projection on the first boundary-1 columns. The strongest one
    moves into position boundary-1 if it beats the column there. Norms
    at or below search.tol count as exactly 0, the rule _qr uses to
    deflate: past the numerical rank every trailing norm is round-off
    whose ordering changes with each refactorization, and without the
    rule those values keep trading places and the loop never reaches a
    fixed point. Returns whether `order` changed.

    At boundary 1 nothing is projected: the trailing norms are the
    square roots of the search's column sums of squares. Past it, Q1 is
    the economic Q of the i = boundary-1 leading columns. Where the
    search holds a tail record, left by an earlier exact path that read
    every trailing norm as 0, the exchange first tries to certify from
    it that this one would too; where it can, it keeps its incumbent
    and projects nothing (_tail_certified holds the bound: the recorded
    basis carries each column to within its recorded residual norm, and
    the new span must hold the recorded basis). Next the pick is tried
    on downdated norms ||a_j||^2 - ||c_j||^2, from c = Q1^T a alone.
    Each is within E_j = 2(||Q1^T Q1 - I||_F + (i + sqrt(i) + 1)(K + i)
    eps) ||a_j||^2 of the squared norm the exact path computes
    (_downdated_pick derives it), and the pick stands only where those
    brackets make it certain. Otherwise the exact path decides: the
    whole matrix projected with the same Q1 and c (_residual_norms),
    whose norms become the tail record when every trailing one reads 0.
    All three routes make the exact path's pick, so every order is its
    own, and _fixed_point's skips, which rest on those norms not
    depending on where a column sits, still hold.
    """
    i, a = boundary - 1, search.a
    pick = None
    if i:
        q = search.leading_q(order[:i])
        if search.tail is not None and _tail_certified(search, order, i, q):
            return False
        c = q.T @ a
        pick = _downdated_pick(search, order, i, q, c)
    if pick is None:
        norms = _residual_norms(a, q, c) if i else np.sqrt(search.sums)
        trail = norms[order[i:]]
        trail[trail <= search.tol] = 0.0
        if i and not trail.any():
            search.tail = q, norms, _defect(q)
        pick = _pick_challenger(trail, 0)
    order[i], order[i + pick] = order[i + pick], order[i]
    return pick != 0


def _weak_exchange(search, order, b) -> bool:
    """Inverse-row-norm exchange: the weakest column of the leading b x b
    triangle of search.a[:, order], the one whose row of R11^{-1} is
    longest (_inverse_row_norms, read straight from dgeqrf's packed output
    through search.leading_packed), moves into position b-1 if it beats
    the column there; a 1 x 1 triangle has no challenger. Returns whether
    `order` changed."""
    if b == 1:
        return False
    r11 = search.leading_packed(order[:b])[0][:b]
    j = _pick_challenger(_inverse_row_norms(r11, search.tol), b - 1)
    order[j], order[b - 1] = order[b - 1], order[j]
    return j != b - 1


def _hybrid_sweeps(search, order, boundary, cap):
    """Drive the two-exchange loop at a fixed block boundary to a fixed point.

    Each pass runs the column-pivot exchange, then the inverse-row-norm
    exchange on the refactorized leading block. A pass whose
    inverse-row-norm exchange moves nothing ends the sweep: the next
    pass would read the same order[:boundary-1], so the same norms,
    whose first argmax is the column the last column-pivot exchange put
    at boundary-1, and then refactorize the same leading block. That
    pass is counted as settled, not run, so the counts are a loop's that
    runs until a pass makes no swap, and a sweep that such a loop could
    not end within `cap` passes raises RrqrIterationError. Returns (swap
    count, pass count); `order` is permuted in place.
    """
    swaps = 0
    for passes in range(1, cap + 1):
        strong = _strong_exchange(search, order, boundary)
        weak = _weak_exchange(search, order, boundary)
        # a column-pivot swap takes the settled pass, if the cap allows it
        if not weak and passes + strong <= cap:
            return swaps + strong, passes + strong
        swaps += strong + weak
    raise RrqrIterationError(
        f"no fixed point after {cap} passes at boundary {boundary}")


def _fixed_point(search, order, p, cap, fixed_at_p=False) -> int:
    """Alternate hybrid sweeps at boundaries p and p+1 until neither permutes.

    A sweep ends at a fixed point of its boundary, its confirming pass
    counted but not run (_hybrid_sweeps). No sweep runs at a
    boundary where `order` is already known to be fixed, since it could
    only cost a pass: at p when fixed_at_p, at the other boundary after a
    sweep that made no swap, and at p after a sweep at p+1 that left the
    first p columns in place. Boundary p's exchanges read only those
    columns and the set of the columns behind them, each column's
    projected norm being computed alike wherever it sits, and the
    exchange's picks are those norms' picks. Every order visited is one
    the plain alternation visits, so the final order is the same.
    Returns the pass count; `order` is permuted in place.
    """
    boundary = p + 1 if fixed_at_p else p
    other_fixed = fixed_at_p
    passes = 0
    for _ in range(2 * cap):
        head = order[:p]
        try:
            swaps, used = _hybrid_sweeps(search, order, boundary, cap)
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
        f"{passes} passes, the last sweep at boundary {boundary}",
        rank=p, boundary=boundary, passes=passes, order=tuple(order))


def _qr_cp_order(search, steps) -> list[int]:
    """The first `steps` pivots of dgeqp3 on search.a, replayed as
    swaps on the identity order, so the columns past `steps` sit where a
    `steps`-step greedy loop leaves them.

    dgeqp3's first pivot is the first column of largest dnrm2 (it picks
    with idamax), so one step runs no factorization. The square roots of
    the search's column sums of squares pick the candidates: a sum of K
    squares, in any order, and its square root are within (K + 2) eps /
    4 relative of the exact norm, and a dnrm2 whose updates round three
    times as often within three times that, so dnrm2's first argmax lies
    among the columns within 4(K + 2) eps of the largest one, twice the
    sum. Those columns' norms are at least about 1/2 at the search's
    scale, so the error of a square that underflows is far below that
    bracket. dnrm2 decides among those alone, in index order.
    """
    a = search.a
    if steps == 1:
        norms = np.sqrt(search.sums)
        near = np.flatnonzero(
            norms >= norms.max() * (1.0 - 4 * (a.shape[0] + 2) * _EPS))
        piv = [int(near[np.argmax([dnrm2(a[:, j]) for j in near])])]
    else:
        _, piv = qr(a, mode="r", pivoting=True, check_finite=False)
    order = list(range(a.shape[1]))
    for i, col in enumerate(piv[:steps]):
        j = order.index(col)
        order[i], order[j] = order[j], order[i]
    return order


def _block_svs(r, p) -> tuple[float, float]:
    """sigma_min(R11) and sigma_max(R22) of a full R blocked at p; an
    empty R22 gives 0."""
    r22 = r[p:, p:]
    return (float(singular_values(r[:p, :p])[-1]),
            float(singular_values(r22)[0]) if r22.size else 0.0)


def _blocked_result(search, order, p, passes) -> RrqrResult:
    factors, r = _full_factors(search, order)
    r11_min_sv, r22_max_sv = search.unscaled(_block_svs(r, p)).tolist()
    return RrqrResult(
        perm=Permutation(tuple(order)), factors=factors, assumed_rank=p,
        r11_min_sv=r11_min_sv, r22_max_sv=r22_max_sv, passes=passes)


def _check_rank(name, value, top, flag=None) -> int:
    """`value`, an integer rank (numpy's too) checked to be in [1, top];
    a rank out of range names `flag` too, the command-line flag behind
    `name`, when there is one."""
    try:
        rank = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if not 1 <= rank <= top:
        raise ValueError(f"{name} must be in [1, {top}], got {rank}"
                         + (f" ({flag})" if flag else ""))
    return rank


def _check_split(alg, name, value, shape, spare) -> int:
    """`value`, the rank `name` at which algorithm `alg` blocks a `shape`
    matrix, checked to leave `spare` columns of the leading triangle past
    it (_check_rank); a matrix with no such rank is refused by its
    shape."""
    if min(shape) <= spare:
        raise ValueError(f"{alg} needs at least {spare + 1} rows and {spare + 1} "
                         f"columns, got a {shape[0]} x {shape[1]} matrix")
    return _check_rank(name, value, min(shape) - spare)


def _hybrid_start(alg, search, p, init, spare, seed, name="p"):
    """Starting order and pass cap of algorithm `alg`'s loop on search's
    matrix.

    p, called `name` in messages, must leave `spare` columns of the
    leading triangle past it (_check_split); without init the order is
    qr_cp's after `seed` steps, the identity if seed is None.
    """
    n = search.a.shape[1]
    _check_split(alg, name, p, search.a.shape, spare)
    if init is None:
        order = list(range(n)) if seed is None else _qr_cp_order(search, seed)
    else:
        order = list(Permutation(tuple(getattr(init, "order", init))).order)
        if len(order) != n:
            raise ValueError(f"init permutation has length {len(order)}, "
                             f"matrix has {n} columns")
    return order, _PASS_CAP_FACTOR * n


def _scan_orders(search, p_cap) -> list[tuple[float, float, int, tuple]]:
    """The rank scan's hybrid3 runs at ranks 1..p_cap, each warm-started.

    Rank 1 starts as hybrid3(mat, 1) does (_hybrid_start); rank
    i from rank i-1's final order, which is already a fixed point at
    boundary i, so its loop opens at boundary i+1. gamma_i and gamma_{i+1}
    are |r_tt| of dgeqrf's packed output, read as 0 at or below the
    deflation tolerance (_qr's R, bit for bit), from a QR of the order's
    first panel (_first_panel at i+1), the full decomposition's bits; no
    Q and no singular value is built. The loops and the QR run on the search's unit-scaled
    copy, and gamma is returned at its scale. Returns (gamma_i,
    gamma_{i+1}, passes, final order) per rank; each order, a tuple of
    column indices, is a fixed point of both of its rank's boundaries.
    """
    order, cap = _hybrid_start("hybrid3", search, 1, None, 1, 1)
    rows = []
    for i in range(1, p_cap + 1):
        passes = _fixed_point(search, order, i, cap, fixed_at_p=i > 1)
        packed = _packed(search.a, _first_panel(order, i + 1))[0]
        pair = np.abs(packed.diagonal()[i - 1:i + 1])
        pair[pair <= search.tol] = 0.0
        rows.append((*pair.tolist(), passes, tuple(order)))
    return rows


def _loading_basis(search, p, order):
    """(Q[:, :p], sigma_min(R11), passes, order) of hybrid1(the matrix,
    p, order) without its full frame. In a scanned fit `order` is the
    scan's at p, a fixed point of boundary p, used as it is: hybrid1's
    one pass from it would swap nothing, so it is counted, not run, as
    _hybrid_sweeps counts a settled pass. With order None the sweep
    starts from qr_cp's first p pivots, and the order it settles on is
    returned. Q[:, :p] and R11 come from an economic QR of the order's
    first panel (_first_panel at p), the full QR's bits. sigma_max(R22)
    is not computed here: _r22_max_sv gives it from Q[:, :p] and the
    order."""
    passes = 1
    if order is None:
        order, cap = _hybrid_start("hybrid1", search, p, None, 0, p)
        _, passes = _hybrid_sweeps(search, order, p, cap)
    q, r = _qr(search.a, _first_panel(order, p), "economic", search.tol)
    r11_min = search.unscaled(singular_values(r[:p, :p])[-1])
    return q[:, :p], float(r11_min), passes, order


def _r22_max_sv(search, q1, order) -> float:
    """sigma_max(R22) of the columns `order` blocked at p, q1 = Q[:, :p]
    (_loading_basis): that of the trailing columns less their projection
    on q1, from the Gram matrix on its smaller side; 0 at p = min(K, n)."""
    a, p = search.a, q1.shape[1]
    if p == min(a.shape):
        return 0.0
    rest = a[:, order[p:]]
    rest -= q1 @ (q1.T @ rest)
    gram = rest @ rest.T if len(rest) <= rest.shape[1] else rest.T @ rest
    top = math.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0))
    return float(search.unscaled(top))


# ---------------------------------------------------------------------------
# public operations


def gs_qr(a) -> QrFactors:
    """Unpivoted Householder QR (LAPACK dgeqrf).

    The name is kept for the API and the CLI's ``--alg gsqr``. Q is always
    K x K and orthonormal; rank-deficient inputs deflate (gamma_i = 0),
    so the block segmentations downstream always see a full orthonormal
    frame.
    """
    search = _PivotSearch(a)
    return _full_factors(search, list(range(search.a.shape[1])))[0]


def qr_cp(a, max_steps: int) -> RrqrResult:
    """QR with column pivoting, run for `max_steps` greedy steps.

    At step s the trailing column of largest residual 2-norm is exchanged
    into position s before elimination; exact ties keep the lowest
    index. The pivots come from LAPACK dgeqp3, whose choice between
    near-ties (within 1e-12 relative) is a strict argmax of its updated
    norms, as in the naive refactorizing oracle (one step reads only its
    first pivot, from the column norms); columns past `max_steps` are
    left where the greedy loop's swaps put them.
    """
    search = _PivotSearch(a)
    _check_rank("max_steps", max_steps, min(search.a.shape))
    order = _qr_cp_order(search, max_steps)
    return _blocked_result(search, order, max_steps, passes=max_steps)


def stewart2(a, rank: int, init: Permutation | None = None) -> RrqrResult:
    """Stewart's reverse pivoting, blocked at `rank`.

    Starting from the full leading triangle of the columns in `init`'s
    order (the identity without one), the column whose inverse row norm
    is largest (the weakest one) is exchanged into the last position of
    the current block, the matrix is refactorized, and the block shrinks
    by one; this repeats until only `rank` columns remain in front.
    `passes` counts those reverse exchanges. Requires the leading
    triangle to be numerically invertible.
    """
    search = _PivotSearch(a)
    size = min(search.a.shape)
    order, _ = _hybrid_start("stewart2", search, rank, init, 0, None, name="rank")
    packed = search.leading_packed(order[:size])[0]
    svs = singular_values(np.triu(packed[:size]))
    if svs[-1] <= 1e-13 * svs[0]:
        lo, hi = search.unscaled(svs[[-1, 0]])
        raise ValueError(
            f"leading block is numerically singular (sv ratio {lo:.3e} / {hi:.3e})")
    for b in range(size, rank, -1):
        _weak_exchange(search, order, b)
    return _blocked_result(search, order, rank, passes=size - rank)


def hybrid1(a, p: int, init: Permutation | None = None) -> RrqrResult:
    """Hybrid rank-revealing QR blocked at p.

    Alternates the column-pivot exchange across the (p-1)-split with the
    inverse-row-norm exchange on the leading p x p triangle until a full
    pass makes no permutation. At the fixed point

        sigma_min(R11) >= sigma_p(A)  / sqrt(p(n-p+1))
        sigma_max(R22) <= sigma_min(R11) * sqrt(p(n-p+1))

    with R11 = R[:p, :p] and R22 = R[p:, p:].
    """
    search = _PivotSearch(a)
    order, cap = _hybrid_start("hybrid1", search, p, init, 0, p)
    _, passes = _hybrid_sweeps(search, order, p, cap)
    return _blocked_result(search, order, p, passes)


def hybrid2(a, p: int, init: Permutation | None = None) -> RrqrResult:
    """The hybrid loop run one column further out, reported at the p-split.

    Identical to hybrid1 at rank p+1 except that the result is blocked at
    p, which is where its guarantees live:

        sigma_max(R22) <= sigma_{p+1}(A) * sqrt((p+1)(n-p))
        sigma_min(R11) >= sigma_max(R22) / sqrt((p+1)(n-p))
    """
    search = _PivotSearch(a)
    order, cap = _hybrid_start("hybrid2", search, p, init, 1, p + 1)
    _, passes = _hybrid_sweeps(search, order, p + 1, cap)
    return _blocked_result(search, order, p, passes)


def hybrid3(a, p: int, init: Permutation | None = None) -> RrqrResult:
    """hybrid1 then hybrid2, repeated until neither permutes.

    The halt state satisfies both bound families at the p-split:

        sigma_max(R22) <= sigma_{p+1}(A) * sqrt((p+1)(n-p))
        sigma_min(R11) >= sigma_p(A) / sqrt(p(n-p+1))

    No sweep runs whose outcome is already known: the loop stops at the
    first zero-swap sweep after a sweep at the other boundary, and after
    a sweep at p+1 that left the first p columns in place (boundary p
    then still holds). `passes` counts the passes of the sweeps run,
    each sweep's settled confirming pass included (_hybrid_sweeps), so
    it can be lower than a loop confirming both boundaries in a last
    round; the permutation and factors are the same.
    """
    search = _PivotSearch(a)
    order, cap = _hybrid_start("hybrid3", search, p, init, 1, p)
    passes = _fixed_point(search, order, p, cap)
    return _blocked_result(search, order, p, passes)


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
