"""Hand-rolled reference implementations the tests trust.

Everything here is deliberately naive: scalar double loops, full
refactorization after every pivot step, closed forms, and loops the
package has since replaced, kept as they were. The package is checked
against these, never the other way around. The panel families the
fitters' metamorphic properties draw from live here too.
"""

import csv
import math

import numpy as np
from hypothesis import strategies as st
from scipy.linalg import qr, solve_toeplitz, solve_triangular
from scipy.linalg.blas import dnrm2

from qrfactors import rrqr
from qrfactors.forecast_eval import ArModel, fit_method
from qrfactors.tsdata import TimeSeries


@st.composite
def sign_flip_panels(draw):
    """(panel, lag_hi, d): a K x N panel from one family and the +-1
    signs of a random subset of its series. Families: noisy (r AR(1)
    factors plus noise), exact rank (no noise, so the scan runs past the
    rank into deflated tails), tied (a series copied onto others), noisy
    scaled by 1e+-200, and noisy with more series than samples (K from
    13 to 24, N from lag_hi + 3 to K - 1: M~'s rank is at most N - 1 <
    K, and fit_evd's and fit_pca's rank cap, min(K, N - 1) - 1, is
    N - 2)."""
    kind = draw(st.sampled_from(["noisy", "exact rank", "tied", "scaled",
                                 "K > N"]))
    lag_hi = draw(st.integers(1, 3))
    if kind == "K > N":
        k = draw(st.integers(13, 24))
        n = draw(st.integers(lag_hi + 3, k - 1))
    else:
        k = draw(st.integers(3, 12))
        n = draw(st.integers(30, 90))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r = draw(st.integers(1, min(3, k - 1)))
    f = np.zeros((r, n))
    innov = rng.standard_normal((r, n))
    for t in range(1, n):
        f[:, t] = 0.7 * f[:, t - 1] + innov[:, t]
    y = rng.uniform(-2.0, 2.0, (k, r)) @ f
    if kind != "exact rank":
        y += 0.5 * rng.standard_normal((k, n))
    if kind == "tied":
        y[rng.choice(k, size=draw(st.integers(1, k - 1)), replace=False)] = y[0]
    if kind == "scaled":
        y *= draw(st.sampled_from([1e-200, 1e200]))
    d = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]),
                               min_size=k, max_size=k)))
    return y, lag_hi, d


@st.composite
def permuted_panels(draw):
    """(panel, lag_hi, perm): a panel of sign_flip_panels' families and a
    permutation of its series; row i of the permuted panel is row perm[i]
    of the panel."""
    y, lag_hi, _ = draw(sign_flip_panels())
    return y, lag_hi, np.array(draw(st.permutations(range(len(y)))))


def lag_product_rounding(z, mat, lags):
    """A bound on ||fl(M) - M||_F for M = mat, the lag products of the
    panel z side by side (covariance._lag_products, K x mK).

    Entry (i, j) of block l is a dot product of N - l terms divided by
    N - l. With u = eps/2, the product is within gamma_{N-l} sum_t
    |z_i(t+l) z_j(t)| <= gamma_{N-l} ||z_i|| ||z_j|| of its exact value
    in any summation order (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., 3.1), and the division adds u |M_ij|. As
    gamma_{N-l} / (N - l) <= u / (1 - N u), block l is within
    u ||z||_F^2 / (1 - N u) + u ||C(l)||_F, and M within sqrt(m) times
    the first term plus u ||M||_F.
    """
    u = np.finfo(float).eps / 2
    return (math.sqrt(len(lags)) * u * float(np.vdot(z, z))
            / (1.0 - z.shape[1] * u) + u * float(np.linalg.norm(mat)))


def brute_autocov(values, lag):
    """Lag autocovariance by the definition, one scalar at a time.

    Full-sample means, one product per overlapping pair, divided by the
    number of pairs.
    """
    values = np.asarray(values, dtype=float)
    k, n = values.shape
    mean = values.mean(axis=1)
    out = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            acc = 0.0
            for t in range(n - lag):
                acc += (values[i, t + lag] - mean[i]) * (values[j, t] - mean[j])
            out[i, j] = acc / (n - lag)
    return out


def brute_series_autocov(x, lag):
    """Biased (1/N) autocovariance of one series, scalar loop."""
    x = np.asarray(x, dtype=float)
    n = x.size
    m = x.mean()
    return sum((x[t] - m) * (x[t - lag] - m) for t in range(lag, n)) / n


def naive_pivot_order(a, steps):
    """Greedy residual-norm pivoting, refactorized from scratch each step.

    At every step the basis of the already-chosen columns is rebuilt with
    numpy's QR and each remaining column's residual norm is measured
    against it. Strict > keeps the earliest column on a tie, matching
    argmax.
    """
    a = np.asarray(a, dtype=float)
    order = []
    remaining = list(range(a.shape[1]))
    for _ in range(steps):
        best = None
        best_norm = -1.0
        for j in remaining:
            col = a[:, j]
            if order:
                basis = np.linalg.qr(a[:, order])[0]
                col = col - basis @ (basis.T @ col)
            norm = float(np.linalg.norm(col))
            if norm > best_norm:
                best_norm = norm
                best = j
        order.append(best)
        remaining.remove(best)
    return order + remaining


def abs_r_diag(a, order):
    """|diag(R)| of a from-scratch QR of the permuted matrix."""
    r = np.linalg.qr(a[:, order], mode="r")
    m = min(r.shape)
    return np.abs(np.diag(r[:m, :m]))


def svd2_closed(a):
    """Both singular values of a 2x2 matrix in closed form."""
    a = np.asarray(a, dtype=float)
    fro2 = float((a * a).sum())
    det = float(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    gap = math.sqrt(max(fro2 * fro2 - 4.0 * det * det, 0.0))
    hi = math.sqrt((fro2 + gap) / 2.0)
    lo = math.sqrt(max((fro2 - gap) / 2.0, 0.0))
    return np.array([hi, lo])


def sym_eig_desc(s):
    """Descending eigenpairs, clamped and signed one column at a time.

    The loop baselines._sym_eig_desc replaced with one array step:
    symmetrize, reverse into copies, clamp eigenvalues below 1e-12 of
    the largest to 0, then flip each eigenvector whose first
    largest-magnitude entry is negative.
    """
    lam, u = np.linalg.eigh((s + s.T) / 2.0)
    lam = lam[::-1].copy()
    u = u[:, ::-1].copy()
    lam[lam < 1e-12 * max(lam.max(), 0.0)] = 0.0
    for j in range(u.shape[1]):
        lead = int(np.argmax(np.abs(u[:, j])))
        if u[lead, j] < 0.0:
            u[:, j] = -u[:, j]
    return lam, u


def interlacing_holds(a, rows, cols, slack=1e-9):
    """Singular values of a leading sub-block interlace the full set.

    Deleting one row or column pushes each singular value down by at
    most one index position, so with d deletions in total:
    sigma_j(A) >= sigma_j(block) >= sigma_{j+d}(A).
    """
    a = np.asarray(a, dtype=float)
    full = np.linalg.svd(a, compute_uv=False)
    sub = np.linalg.svd(a[:rows, :cols], compute_uv=False)
    dropped = (a.shape[0] - rows) + (a.shape[1] - cols)
    tol = slack * (full[0] if full.size else 1.0)
    for j, s in enumerate(sub):
        if s > full[j] + tol:
            return False
        floor = full[j + dropped] if j + dropped < full.size else 0.0
        if s < floor - tol:
            return False
    return True


def ar1_variance(phi, innov_var):
    """Stationary variance of x[t] = phi x[t-1] + e[t]."""
    return innov_var / (1.0 - phi * phi)


def ma_gap_autocov(alpha, gap, lag):
    """Autocovariance of x[t] = e[t] + alpha e[t-gap], unit innovations."""
    if lag == 0:
        return 1.0 + alpha * alpha
    return alpha if lag == gap else 0.0


def random_orthonormal(rng, rows, cols):
    """Haar-ish orthonormal basis via QR of a Gaussian draw."""
    q = np.linalg.qr(rng.standard_normal((rows, rows)))[0]
    return q[:, :cols]


def matrix_with_spectrum(rng, rows, cols, spectrum):
    """Random matrix with the given leading singular values.

    Unlisted singular values are zero.
    """
    spectrum = np.asarray(spectrum, dtype=float)
    u = random_orthonormal(rng, rows, min(rows, spectrum.size))
    v = random_orthonormal(rng, cols, min(cols, spectrum.size))
    return (u * spectrum[: u.shape[1]]) @ v.T


def exact_rank_three(seed, k=30, n=300):
    """A noise-free panel of exact rank 3: three AR(1) factors on
    uniform loadings."""
    rng = np.random.default_rng(seed)
    x = np.zeros((3, n))
    innov = rng.standard_normal((3, n))
    for t in range(1, n):
        x[:, t] = np.array([0.8, -0.5, 0.3]) * x[:, t - 1] + innov[:, t]
    return TimeSeries(rng.uniform(-2.0, 2.0, size=(k, 3)) @ x)


def col_norms(a):
    """Column 2-norms of a; no square overflows or underflows.

    Each column is scaled by the power of two that brings its largest
    entry into [0.5, 1) and its norm is scaled back after. Both scalings
    are exact and the squares are summed down each column as
    np.linalg.norm sums them, so in-range norms are its bit for bit.
    """
    _, exp = np.frexp(np.maximum(a.max(axis=0), -a.min(axis=0)))
    scaled = np.ldexp(a, -exp)
    scaled *= scaled
    return np.ldexp(np.sqrt(np.add.reduce(scaled, axis=0)), exp)


def scipy_qr(a, cols, mode, defl_tol):
    """rrqr._qr as it was, through scipy.linalg.qr's wrapper."""
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


def scipy_inverse_row_norms(r11):
    """2-norms of the rows of r11^{-1}, r11 upper triangular, from
    scipy's solve_triangular(r11, I, trans="T") and per-column-scaled
    column norms; a zero pivot gives its row inf and every other row 0."""
    b = r11.shape[0]
    diag = np.diagonal(r11)
    if (diag == 0.0).any():
        out = np.zeros(b)
        out[diag == 0.0] = np.inf
        return out
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        inv_t = solve_triangular(r11, np.eye(b), trans="T", lower=False)
        norms = col_norms(inv_t)
    return np.nan_to_num(norms, nan=np.inf, posinf=np.inf)


def old_hybrid3(a, p, init=None):
    """hybrid3 as it was before it skipped no-op sweeps: hybrid1's and
    hybrid2's sweeps alternate in rounds until a whole round makes no
    swap, each round counting its passes. The sweeps run on the
    unit-scaled copy, as hybrid3's do."""
    search = rrqr._PivotSearch(a)
    order, cap = rrqr._hybrid_start("hybrid3", search, p, init, spare=1,
                                     seed=p)
    passes = 0
    for _ in range(cap):
        s1, p1 = rrqr._hybrid_sweeps(search, order, p, cap)
        s2, p2 = rrqr._hybrid_sweeps(search, order, p + 1, cap)
        passes += p1 + p2
        if s1 == 0 and s2 == 0:
            return rrqr._blocked_result(search, order, p, passes)
    raise rrqr.RrqrIterationError(f"old hybrid3 made {cap} rounds at rank {p}")


def two_pass_scale(mat, exp=0):
    """(a, exp, tol, sums) of rrqr._PivotSearch(mat, exp) as it was built
    in two passes: a per-column-scaled norm pass over its own copy of
    the matrix at the peak's power of two found the scale, and the
    scaled copy was made from the input after it; the sums of squares
    were summed from that copy when first read."""
    mat = np.asarray(mat, dtype=float)
    shift = -math.frexp(float(np.maximum(mat.max(), -mat.min())))[1]
    _, col_exp = np.frexp(np.maximum(mat.max(axis=0), -mat.min(axis=0)))
    scaled = np.ldexp(mat, -col_exp)
    scaled *= scaled
    norms = np.ldexp(np.sqrt(np.add.reduce(scaled, axis=0)), col_exp + shift)
    top, top_exp = math.frexp(float(norms.max()))
    a = np.ldexp(mat, shift - top_exp)
    return (a, exp - shift + top_exp, rrqr._DEFL_RTOL * top,
            np.einsum("ij,ij->j", a, a))


def gathered_strong_exchange(search, order, boundary):
    """The column-pivot exchange as it was: the trailing columns gathered
    in their current order, projected and normed on every pass."""
    a, defl_tol = search.a, search.tol
    i = boundary - 1
    rest = a[:, order[i:]]
    if i:
        q, _ = rrqr._qr(a, order[:i], "economic", defl_tol)
        rest = rest - q @ (q.T @ rest)
    trail = col_norms(rest)
    trail[trail <= defl_tol] = 0.0
    j = rrqr._pick_challenger(trail, 0)
    order[i], order[i + j] = order[i + j], order[i]
    return j != 0


def projected_strong_exchange(search, order, boundary):
    """The column-pivot exchange as it was before it downdated: on every
    pass the whole matrix projected in its own column order and the
    trailing norms read out of its column norms; at boundary 1 the norms
    of a Fortran-ordered copy, summed on every call."""
    a, defl_tol = search.a, search.tol
    i = boundary - 1
    if not i:
        trail = col_norms(np.asfortranarray(a))[order]
    else:
        q, _ = rrqr._qr(a, order[:i], "economic", defl_tol)
        proj = q @ (q.T @ a)
        resid = np.subtract(a, proj, out=proj)
        resid *= resid
        trail = np.sqrt(np.add.reduce(resid, axis=0))[order[i:]]
    trail[trail <= defl_tol] = 0.0
    j = rrqr._pick_challenger(trail, 0)
    order[i], order[i + j] = order[i + j], order[i]
    return j != 0


def old_scan(mat, p_cap, n, k=None):
    """The rank scan as it was: old_hybrid3 once per rank, seeded with the
    previous rank's permutation, ratios read off the full R diagonal.

    Returns (p_hat, epsilon, ratios, summed hybrid3 passes, per-rank
    hybrid3 permutations).
    """
    k = mat.shape[0] if k is None else k
    perms = []
    epsilon = 0.0
    ratios = []
    passes = 0
    for i in range(1, p_cap + 1):
        res = old_hybrid3(mat, i, init=perms[-1] if perms else None)
        perms.append(res.perm)
        passes += res.passes
        diag = res.factors.diag
        if i == 1:
            epsilon = float(diag[0]) / math.sqrt(k * n)
        ratios.append((float(diag[i - 1]) + epsilon)
                      / (float(diag[i]) + epsilon))
    return (int(np.argmax(ratios)) + 1, epsilon, np.array(ratios), passes,
            tuple(perms))


_OLD_RANK_FLAGS = {"p_cap": "--p-cap", "p_max": "--p-max",
                   "p_override": "fit --p, sim --p-override"}


def _old_rank_cap(p_cap, limit, default=15, name="p_cap", n=None):
    """The shared cap check of the three rank rules below, as it was."""
    if limit < 1:
        why = ("a single series has none" if n is None or n > 2 else
               f"{n} samples have none: demeaned, the panel has rank at most "
               f"{n - 1}")
        raise ValueError(
            f"no candidate rank to choose from ({why}); "
            "pin the factor count with p_override (qrfactors fit --p, "
            "sim --p-override)"
        )
    if p_cap is None:
        return min(limit, default)
    return rrqr._check_rank(name, p_cap, limit, _OLD_RANK_FLAGS[name])


def _old_rrqr_ranks(k, n, p_override, p_cap):
    if p_override is not None:
        return _old_rank_cap(p_override, k, name="p_override"), None
    return None, _old_rank_cap(p_cap, k - 1)


def _old_evd_ranks(k, n, p_override, p_cap):
    if p_override is not None:
        p_override = _old_rank_cap(p_override, k, name="p_override")
        if k == 1:
            return p_override, None
    return p_override, _old_rank_cap(p_cap, min(k, n - 1) - 1, n=n)


def _old_pca_ranks(k, n, p_override, p_cap):
    if p_override is not None:
        return _old_rank_cap(p_override, min(k, n), name="p_override"), None
    return None, _old_rank_cap(p_cap, min(k, n - 1) - 1, default=40, n=n)


# Each fit's rank settings on a K x n panel, checked, by the one helper
# per method of (K, n, p_override, p_cap) the fits once called: the
# pinned rank and the cap the fit reads (None where it reads none).
OLD_RANK_RULES = {"rrqr": _old_rrqr_ranks, "evd": _old_evd_ranks,
                  "pca": _old_pca_ranks}


def yule_walker(series, order):
    """The package's yule_walker as it was: one dot product per lag,
    then a Levinson solve of the Toeplitz system."""
    x = np.asarray(series, dtype=float).ravel()
    n = x.size
    if not 1 <= order <= n // 2:
        raise ValueError(f"order must be in [1, {n // 2}], got {order}")
    if not np.isfinite(x).all():
        raise ValueError("series contains NaN or Inf")
    xc = x - x.mean()
    cov = np.array([xc[j:] @ xc[:n - j] for j in range(order + 1)]) / n
    if cov[0] <= 0.0:
        raise ValueError("series has zero variance; no AR structure to fit")
    coeffs = solve_toeplitz(cov[:order], cov[1:order + 1])
    noise_var = max(float(cov[0] - coeffs @ cov[1:order + 1]), 0.0)
    return ArModel(order=order, coeffs=tuple(coeffs), noise_var=noise_var)


def old_rmse(fit, loading, factors):
    """(rmse, rmse_conventional) by their formulas, written out."""
    resid = fit.q_hat @ fit.factors - np.asarray(loading) @ np.asarray(factors)
    k, n = resid.shape
    total = float(np.linalg.norm(resid, axis=0).sum())
    return (math.sqrt(total / (k * n)),
            float(np.linalg.norm(resid)) / math.sqrt(k * n))


def _old_one_step(fit, ar, hist):
    """forecast_one_step as it was: one dot product per factor, newest
    value first, mapped through the loading basis."""
    f_next = np.empty(fit.p_hat)
    for i, model in enumerate(ar):
        recent = hist[i, hist.shape[1] - model.order:][::-1]
        f_next[i] = float(np.dot(model.coeffs, recent))
    return fit.q_hat @ f_next


def old_rolling_fe(ts, method, window, refit_stride, ar_order, eval_len,
                   lag_lo=1, lag_hi=2, p_cap=None):
    """rolling_eval's forecast error as it was: every target re-projects
    the window up to itself and is forecast on its own."""
    values = ts.values
    first_target = ts.N - eval_len
    preds = np.empty((ts.K, eval_len))
    for block_start in range(first_target, ts.N, refit_stride):
        w0 = block_start - window
        fit = fit_method(method, TimeSeries(values=values[:, w0:block_start]),
                         lag_lo, lag_hi, p_cap=p_cap)
        wmean = values[:, w0:block_start].mean(axis=1, keepdims=True)
        ar = [yule_walker(fit.factors[i], ar_order) for i in range(fit.p_hat)]
        for t in range(block_start, min(block_start + refit_stride, ts.N)):
            hist = fit.q_hat.T @ (values[:, w0:t] - wmean)
            preds[:, t - first_target] = _old_one_step(fit, ar, hist) + wmean[:, 0]
    resid = preds - values[:, first_target:]
    return float(np.linalg.norm(resid, axis=0).mean() / math.sqrt(ts.K))


def old_insample_fe(fit, ts, ar_order):
    """The Monte-Carlo in-sample forecast error as it was: one target at
    a time from the fitted factor paths before it."""
    ar = [yule_walker(fit.factors[i], ar_order) for i in range(fit.p_hat)]
    mean = ts.values.mean(axis=1, keepdims=True)
    start = 2 * ar_order
    preds = np.empty((ts.K, ts.N - start))
    for t in range(start, ts.N):
        preds[:, t - start] = (_old_one_step(fit, ar, fit.factors[:, :t])
                               + mean[:, 0])
    resid = preds - ts.values[:, start:]
    return float(np.linalg.norm(resid, axis=0).mean() / math.sqrt(ts.K))


def dnrm2_first_pivot(a):
    """The rank-1 seed as it was: dnrm2 of every column, called one by
    one from Python, and the first argmax."""
    return int(np.argmax([dnrm2(col) for col in np.asfortranarray(a).T]))


def whole_r_weak_exchange(search, order, b):
    """The inverse-row-norm exchange as it was: the leading triangle read
    out of the whole K x b R scipy's R-only QR returns."""
    _, r = scipy_qr(search.a, order[:b], "r", search.tol)
    j = rrqr._pick_challenger(rrqr._inverse_row_norms(r[:b, :b], search.tol),
                              b - 1)
    order[j], order[b - 1] = order[b - 1], order[j]
    return j != b - 1


def plain_hybrid_sweeps(search, order, boundary, cap):
    """The hybrid sweep as it was: passes run until one makes no swap,
    the confirming pass after a last column-pivot swap included."""
    swaps = 0
    passes = 0
    while True:
        passes += 1
        if passes > cap:
            raise rrqr.RrqrIterationError(
                f"no fixed point after {cap} passes at boundary {boundary}"
            )
        moved = (rrqr._strong_exchange(search, order, boundary)
                 + rrqr._weak_exchange(search, order, boundary))
        if not moved:
            return swaps, passes
        swaps += moved


def result_bits(res):
    """An RrqrResult as a comparable tuple: its order, pass count, the
    bytes of Q and R, and its block singular values."""
    return (res.perm.order, res.passes, res.factors.q.tobytes(),
            res.factors.r.tobytes(), res.r11_min_sv, res.r22_max_sv)


def old_load_csv(path, orientation: str = "rows-are-series",
                 has_header: bool = False) -> TimeSeries:
    """`tsdata.load_csv` as it was: `csv.reader` and a per-cell `float`
    loop over the whole file."""
    orientation = {"rows": "rows-are-series",
                   "columns": "columns-are-series"}.get(orientation, orientation)
    if orientation not in ("rows-are-series", "columns-are-series"):
        raise ValueError(f"unknown orientation {orientation!r}")

    with open(path, newline="", encoding="utf-8") as fh:
        raw = [row for row in csv.reader(fh)]
    # Trailing blank lines are noise, interior ones are structure errors.
    while raw and all(c.strip() == "" for c in raw[-1]):
        raw.pop()
    if not raw:
        raise ValueError(f"{path}: empty file")

    header = None
    first_data_row = 1
    if has_header:
        header = [c.strip() for c in raw[0]]
        raw = raw[1:]
        first_data_row = 2
        if not raw:
            raise ValueError(f"{path}: no data rows after header")

    widths = {len(row) for row in raw}
    if len(widths) != 1:
        raise ValueError(f"{path}: ragged rows (widths {sorted(widths)})")

    # Detect a label column: any unparseable cell in column 1 marks it.
    def parses(cell: str) -> bool:
        try:
            float(cell.strip())
            return True
        except ValueError:
            return False

    label_col = (orientation == "rows-are-series"
                 and not all(parses(row[0]) for row in raw))
    labels = [row[0].strip() for row in raw] if label_col else None
    col0 = 1 if label_col else 0

    data = np.empty((len(raw), len(raw[0]) - col0))
    for i, row in enumerate(raw):
        for j, cell in enumerate(row[col0:]):
            try:
                data[i, j] = float(cell.strip())
            except ValueError:
                raise ValueError(
                    f"{path}: cell at row {i + first_data_row}, "
                    f"column {j + col0 + 1} is not numeric: {cell.strip()!r}"
                ) from None

    if orientation == "rows-are-series":
        return TimeSeries(data, labels=labels)
    names = header if (header and len(header) == data.shape[1]) else None
    return TimeSeries(data.T, labels=names)


def old_read_matrix(path: str) -> np.ndarray:
    """`cli._read_matrix` as it was: blank records skipped, every record
    numbered by its place in the file, and a bad cell reported before
    ragged rows."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for i, line in enumerate(csv.reader(fh), start=1):
            if not line or all(c.strip() == "" for c in line):
                continue
            rows.append([])
            for j, cell in enumerate(line, start=1):
                try:
                    rows[-1].append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}: cell at row {i}, column {j} is not "
                        f"numeric: {cell.strip()!r}") from None
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"{path}: ragged rows (widths {sorted(widths)})")
    return np.array(rows)
