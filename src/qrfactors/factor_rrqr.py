"""Factor estimation by rank revelation on stacked lag covariances.

The estimator treats the horizontal stack of lag-autocovariance matrices
as a noisy low-rank matrix: its numerical rank is the number of latent
factors, and the orthonormal basis of its pivoted column space is the
loading matrix. Rank is read off a ratio curve over the R diagonal of
hybrid rank-revealing decompositions, one per candidate rank, each
warm-started from the previous one; the scan builds only R for each, not
its orthonormal factor or block singular values. The loading basis comes
from a full hybrid decomposition at the chosen rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .covariance import AugmentedCov, build_augmented
from .rrqr import _as_matrix, _scan_orders, hybrid1
# bench/reference.py patches factor_rrqr.hybrid3 to count the scan's passes;
# the scan no longer calls it, but the name stays until that script changes.
from .rrqr import hybrid3  # noqa: F401
from .tsdata import TimeSeries, demean

# Widest rank scanned when the caller does not say; generous for factor
# counts seen in practice while keeping the scan loop cheap.
_DEFAULT_RANK_CAP = 15


def _rank_cap(p_cap: int | None, limit: int,
             default: int = _DEFAULT_RANK_CAP) -> int:
    """The caller's cap, or `default` clipped to `limit`, the largest
    candidate rank. With no candidate rank (a single series) the factor
    count cannot be chosen, so the caller must pin it."""
    if p_cap is not None:
        return p_cap
    if limit < 1:
        raise ValueError(
            "no candidate rank to choose from (a single series has none); "
            "pin the factor count with p_override (qrfactors fit --p, "
            "sim --p-override)"
        )
    return min(limit, default)


@dataclass(frozen=True)
class RankCandidate:
    """One row of the rank scan: diagonal pair and their padded ratio
    (for the EVD curve: eigenvalue pair and their plain ratio)."""

    index: int
    gamma: float
    gamma_next: float
    ratio: float


@dataclass(frozen=True)
class ModelOrderScan:
    """Ratio curve over candidate ranks and the argmax verdict.

    epsilon pads both numerator and denominator so that ratios of
    noise-floor diagonals stay near 1 instead of blowing up; it is the
    leading diagonal entry scaled by 1/sqrt(K*N), evaluated once on the
    rank-1 decomposition and reused for every candidate. passes holds
    the hybrid sweep passes spent at each candidate rank. The EVD
    fitter's eigenvalue-ratio curve uses the same record with epsilon 0
    and no passes.
    """

    candidates: tuple[RankCandidate, ...]
    epsilon: float
    p_hat: int
    p_cap: int
    passes: tuple[int, ...] = ()

    def ratios(self) -> np.ndarray:
        return np.array([c.ratio for c in self.candidates])


@dataclass(frozen=True)
class FactorModelFit:
    """A fitted factor model: loading basis, factor paths, and how we got them.

    factors holds q_hat.T applied to the demeaned observations, so
    q_hat @ factors is the model's reconstruction of the centered data.
    diagnostics carries method-specific scalars (block singular values for
    the pivoted fit, eigenvalues or residual variance for the baselines).
    """

    method: str
    p_hat: int
    q_hat: np.ndarray
    factors: np.ndarray
    scan: ModelOrderScan | None = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        q = np.array(self.q_hat, dtype=float, copy=True)
        f = np.array(self.factors, dtype=float, copy=True)
        if q.ndim != 2 or f.ndim != 2 or q.shape[1] != f.shape[0]:
            raise ValueError(
                f"loading/factor shapes disagree: {q.shape} vs {f.shape}"
            )
        if self.p_hat != q.shape[1]:
            raise ValueError(f"p_hat={self.p_hat} but q_hat has {q.shape[1]} columns")
        q.setflags(write=False)
        f.setflags(write=False)
        object.__setattr__(self, "q_hat", q)
        object.__setattr__(self, "factors", f)


def scan_model_order(m_tilde, p_cap: int | None = None, n: int | None = None,
                     k: int | None = None) -> ModelOrderScan:
    """Estimate numerical rank from the ratio curve of R diagonals.

    For every candidate rank i in 1..p_cap a hybrid decomposition blocked
    at i is computed, each seeded with the previous candidate's
    permutation so the swap loops start at a fixed point of one of their
    two boundaries (rrqr._scan_orders). The i-th and (i+1)-th diagonal
    entries gamma_i, gamma_{i+1} of that decomposition, read from an
    R-only QR, feed the ratio

        r_i = (gamma_i + eps) / (gamma_{i+1} + eps)

    and the estimated rank is the i maximizing r_i (lowest on ties).

    Parameters
    ----------
    m_tilde : AugmentedCov or array-like
        The stacked lag-covariance matrix (or any K x n matrix to
        rank-scan).
    p_cap : int, optional
        Largest candidate rank, at most min(K, n) - 1; _rank_cap's
        default when omitted.
    n : int, optional
        Sample count behind the matrix, used only to scale eps. Taken
        from the AugmentedCov when omitted.
    k : int, optional
        Series count; defaults to the row count.
    """
    mat = _as_matrix(m_tilde.matrix if isinstance(m_tilde, AugmentedCov)
                     else m_tilde)
    rows, cols = mat.shape
    if k is None:
        k = m_tilde.K if isinstance(m_tilde, AugmentedCov) else rows
    if n is None:
        n = m_tilde.N if isinstance(m_tilde, AugmentedCov) else 0
    if n <= 0:
        raise ValueError("sample count n is required to scale the ratio floor")
    p_cap = _rank_cap(p_cap, min(rows, cols) - 1)
    if not 1 <= p_cap <= min(rows, cols) - 1:
        raise ValueError(
            f"p_cap must be in [1, {min(rows, cols) - 1}], got {p_cap}"
        )
    per_rank = _scan_orders(mat, p_cap)
    if per_rank[0][0] <= 0.0:
        raise ValueError("matrix is numerically zero; no rank to reveal")
    epsilon = per_rank[0][0] / math.sqrt(k * n)
    candidates = tuple(
        RankCandidate(index=i, gamma=gamma, gamma_next=gamma_next,
                      ratio=(gamma + epsilon) / (gamma_next + epsilon))
        for i, (gamma, gamma_next, _) in enumerate(per_rank, start=1))
    best = int(np.argmax([c.ratio for c in candidates]))
    return ModelOrderScan(candidates=candidates, epsilon=epsilon,
                          p_hat=best + 1, p_cap=p_cap,
                          passes=tuple(passes for *_, passes in per_rank))


def fit_rrqr(ts: TimeSeries, lag_lo: int = 1, lag_hi: int = 2,
             p_override: int | None = None,
             p_cap: int | None = None) -> FactorModelFit:
    """Fit the factor model by pivoted QR of the stacked lag covariances.

    Demeans the series, stacks the sample autocovariances for lags
    lag_lo..lag_hi, estimates the factor count by scan_model_order
    (unless p_override pins it), then takes the loading basis from a
    hybrid decomposition at that rank: the first p_hat columns of its
    orthonormal factor. Factor paths are the basis applied to the
    centered observations.
    """
    aug = build_augmented(ts, lag_lo, lag_hi)
    mat = np.asarray(aug.matrix)
    rank_limit = min(mat.shape)
    scan = None
    if p_override is not None:
        if not 1 <= p_override <= rank_limit:
            raise ValueError(
                f"p_override must be in [1, {rank_limit}], got {p_override}"
            )
        p_hat = int(p_override)
    else:
        scan = scan_model_order(aug, p_cap)
        p_hat = scan.p_hat
    res = hybrid1(mat, p_hat)
    q_hat = res.factors.q[:, :p_hat]
    centered = demean(ts)
    diagnostics = {
        "r11_min_sv": res.r11_min_sv,
        "r22_max_sv": res.r22_max_sv,
        "passes": float(res.passes),
    }
    if scan is not None:
        diagnostics["epsilon"] = scan.epsilon
    return FactorModelFit(method="RRQR", p_hat=p_hat, q_hat=q_hat,
                          factors=q_hat.T @ centered.values,
                          scan=scan, diagnostics=diagnostics)
