"""Hand-rolled reference implementations the tests trust.

Everything here is deliberately naive: scalar double loops, full
refactorization after every pivot step, closed forms, and loops the
package has since replaced, kept as they were. The package is checked
against these, never the other way around.
"""

import math

import numpy as np

from qrfactors import rrqr


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


def old_hybrid3(a, p, init=None):
    """hybrid3 as it was before it skipped no-op sweeps: hybrid1's and
    hybrid2's sweeps alternate in rounds until a whole round makes no
    swap, each round counting its passes."""
    mat, order, tol, cap = rrqr._hybrid_start(a, p, init, spare=1, seed=p)
    passes = 0
    for _ in range(cap):
        s1, p1 = rrqr._hybrid_sweeps(mat, order, p, tol, cap)
        s2, p2 = rrqr._hybrid_sweeps(mat, order, p + 1, tol, cap)
        passes += p1 + p2
        if s1 == 0 and s2 == 0:
            return rrqr._blocked_result(mat, order, p, passes, tol)
    raise rrqr.RrqrIterationError(f"old hybrid3 made {cap} rounds at rank {p}")


def old_scan(mat, p_cap, n, k=None):
    """The rank scan as it was: old_hybrid3 once per rank, seeded with the
    previous rank's permutation, ratios read off the full R diagonal.

    Returns (p_hat, epsilon, ratios, summed hybrid3 passes).
    """
    k = mat.shape[0] if k is None else k
    perm = None
    epsilon = 0.0
    ratios = []
    passes = 0
    for i in range(1, p_cap + 1):
        res = old_hybrid3(mat, i, init=perm)
        perm = res.perm
        passes += res.passes
        diag = res.factors.diag
        if i == 1:
            epsilon = float(diag[0]) / math.sqrt(k * n)
        ratios.append((float(diag[i - 1]) + epsilon)
                      / (float(diag[i]) + epsilon))
    return int(np.argmax(ratios)) + 1, epsilon, np.array(ratios), passes
