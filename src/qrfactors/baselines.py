"""Spectral baselines: lag-covariance EVD and flat-covariance PCA.

Both produce FactorModelFit records through the pivoted-QR fitter's
record builder (factor_rrqr._fit_record), so downstream forecasting and
Monte-Carlo code treats all three methods uniformly. The EVD route
eigendecomposes the accumulated outer products of the lag covariances
and picks the rank by the eigenvalue-ratio rule; the PCA route
eigendecomposes the lag-0 covariance and picks the rank by an
information criterion with a (K+N)/(KN)-type penalty (Bai & Ng 2002).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import _lag_range, sample_autocov
from .factor_rrqr import (FactorModelFit, ModelOrderScan, _fit_record,
                          _rank_cap)
from .tsdata import TimeSeries, _frozen, _rescaled

# Default information-criterion search limit for fit_pca.
_PCA_SEARCH_LIMIT = 40


@dataclass(frozen=True)
class EvdSpectrum:
    """Descending eigenpairs of the lag-covariance outer-product sum.

    ratios[i-1] = eigenvalues[i-1] / eigenvalues[i]; a zero denominator
    under a nonzero numerator gives inf (an exact rank edge), and 0/0
    gives 0 so dead tails never win the argmax.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    ratios: np.ndarray

    def __post_init__(self):
        for name in ("eigenvalues", "eigenvectors", "ratios"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))


def _sym_eig_desc(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Descending eigendecomposition with PSD repair and fixed vector signs.

    Eigenvalues below the solver's noise floor (1e-12 of the largest,
    negatives included) are floating-point leakage from a
    PSD-by-construction matrix; they clamp to 0 so that exactly singular
    input yields exact zeros rather than round-off dust. Each eigenvector
    is flipped so its largest-magnitude entry (the first on ties) is
    positive, making the decomposition reproducible across LAPACK builds.
    """
    lam, u = np.linalg.eigh((s + s.T) / 2.0)
    lam, u = lam[::-1], u[:, ::-1]
    lam[lam < 1e-12 * max(lam.max(), 0.0)] = 0.0
    lead = u[np.abs(u).argmax(axis=0), np.arange(u.shape[1])]
    # the product is C-ordered: a reversed view of u would reach the
    # loadings' matmul with negative strides
    return lam, u * np.where(lead < 0.0, -1.0, 1.0)


def _eig_ratios(lam: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = lam[:-1] / lam[1:]
    return np.nan_to_num(ratios, nan=0.0, posinf=np.inf)


def evd_spectrum(ts: TimeSeries, lag_lo: int = 1, lag_hi: int = 2) -> EvdSpectrum:
    """Eigendecomposition of S, the sum over the lag range of
    autocov(l) @ autocov(l).T, with the ratio curve attached.

    S is the Gram matrix of the horizontally stacked lag covariances, so
    its eigenvalues are the squared singular values the pivoted-QR route
    works from; only they depend on the panel's scale.
    """
    covs = [sample_autocov(ts, lag) for lag in _lag_range(ts.N, lag_lo, lag_hi)]
    lam, u = _sym_eig_desc(sum(cov.scaled @ cov.scaled.T for cov in covs))
    return EvdSpectrum(eigenvalues=_rescaled(lam, 2 * covs[0].exponent),
                       eigenvectors=u, ratios=_eig_ratios(lam))


def fit_evd(ts: TimeSeries, lag_lo: int = 1, lag_hi: int = 2,
            p_override: int | None = None,
            p_cap: int | None = None) -> FactorModelFit:
    """Fit the factor model from the top eigenvectors of evd_spectrum's S.

    The rank is the first argmax of the eigenvalue ratios over 1..p_cap
    (ModelOrderScan.from_curve) unless p_override pins it; the cap defaults
    to the same value the pivoted-QR scan uses so the two methods search
    the same range. The sample matrix has rank at most min(K, N-1),
    past which a ratio x/0 = inf would always win, so p_cap is at most
    min(K, N-1) - 1. The eigenvalue-ratio curve over that range is
    returned as scan (epsilon 0), also under p_override; a single series
    has no curve. p_hat, q_hat and the ratios do not depend on the
    panel's scale. A panel of constant series is rejected.
    """
    spectrum = evd_spectrum(ts, lag_lo, lag_hi)
    lam = spectrum.eigenvalues
    if p_override is not None:
        p_override = _rank_cap(p_override, ts.K, name="p_override")
    scan = None
    if p_override is None or ts.K > 1:
        cap = _rank_cap(p_cap, min(ts.K, ts.N - 1) - 1)
        scan = ModelOrderScan.from_curve(lam[:cap], lam[1:cap + 1],
                                         spectrum.ratios[:cap], 0.0, (), ())
    p_hat = scan.p_hat if p_override is None else p_override
    diagnostics = {
        "lambda_top": float(lam[0]),
        "lambda_tail": float(lam[p_hat]) if p_hat < lam.size else 0.0,
    }
    return _fit_record("EVD", ts, spectrum.eigenvectors[:, :p_hat], scan,
                       diagnostics)


def _ic_from_eigs(lam: np.ndarray, p: int, k: int, n: int) -> float:
    """Information criterion at rank p from lag-0 eigenvalues.

    The mean squared residual of the best rank-p projection is the mean
    of the trailing eigenvalues; a resolved-to-zero residual makes the
    log -inf, a distinguished "perfect fit" value that argmin treats as
    an automatic winner. Eigenvalues times 2^x shift it by x ln 2.
    """
    v = float(lam[p:].sum()) / k
    penalty = p * ((k + n) / (k * n)) * math.log(k * n / (k + n))
    if v <= 0.0:
        return float("-inf")
    return math.log(v) + penalty


def fit_pca(ts: TimeSeries, p_max: int | None = None,
            p_override: int | None = None) -> FactorModelFit:
    """PCA factor fit with information-criterion rank selection.

    Eigendecomposes the lag-0 covariance, picks the rank minimizing the
    information criterion over 1..p_max (lowest rank on ties), and takes
    the top eigenvectors as loadings. The demeaned panel has rank at
    most min(K, N-1), where the residual is exactly zero and its -inf
    criterion would win unconditionally, so p_max is at most
    min(K, N-1) - 1. The sigma2_hat diagnostic is the plain sum of the
    trailing eigenvalues (a total, not a per-coordinate average). p_hat
    and q_hat do not depend on the panel's scale. A panel of constant
    series is rejected.
    """
    cov = sample_autocov(ts, 0)
    lam, u = _sym_eig_desc(cov.scaled)
    if p_override is not None:
        p_hat = _rank_cap(p_override, min(ts.K, ts.N), name="p_override")
        ic_at_p = _ic_from_eigs(lam, p_hat, ts.K, ts.N)
    else:
        p_max = _rank_cap(p_max, min(ts.K, ts.N - 1) - 1,
                          default=_PCA_SEARCH_LIMIT, name="p_max")
        scores = [_ic_from_eigs(lam, p, ts.K, ts.N) for p in range(1, p_max + 1)]
        p_hat = int(np.argmin(scores)) + 1
        ic_at_p = scores[p_hat - 1]
    diagnostics = {
        "sigma2_hat": float(_rescaled(lam[p_hat:].sum(), cov.exponent)),
        "ic": ic_at_p + cov.exponent * math.log(2.0),
    }
    return _fit_record("PCA", ts, u[:, :p_hat], None, diagnostics)
