"""Factor estimation by rank revelation on stacked lag covariances.

The estimator treats the horizontal stack of lag-autocovariance matrices
as a noisy low-rank matrix: its numerical rank is the number of latent
factors, and the orthonormal basis of its pivoted column space is the
loading matrix. Rank is read off a ratio curve over the R diagonal of
hybrid rank-revealing decompositions, one per candidate rank, each
warm-started from the previous one; the scan builds only R for each, not
its orthonormal factor or block singular values. One RRQR serves both
jobs: the scan keeps each rank's final order, and the loading basis is
the orthonormal factor of the order at the chosen rank, used as it is
and read from one QR of LAPACK's first panel. sigma_max(R22), a
diagnostic no estimate needs, is computed only when a caller reads it.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .covariance import _lag_products, build_augmented
from .rrqr import (_check_rank, _loading_basis, _PivotSearch, _r22_max_sv,
                   _scan_orders)
# bench/reference.py patches factor_rrqr.hybrid3 to count the scan's passes;
# the scan does not call it, but the name stays while that script patches it.
from .rrqr import hybrid3  # noqa: F401
from .tsdata import TimeSeries, _frozen, _rescaled

# Widest rank scanned when the caller does not say; generous for factor
# counts seen in practice while keeping the scan loop cheap.
_DEFAULT_RANK_CAP = 15


def _rank_cap(p_cap: int | None, limit: int,
              default: int = _DEFAULT_RANK_CAP, name: str = "p_cap") -> int:
    """The caller's cap, checked to lie in [1, limit], or `default`
    clipped to `limit`, the largest candidate rank. With no candidate
    rank (a single series) the factor count cannot be chosen, so the
    caller must pin it. `name` is the cap's parameter name in messages;
    the fitters check a pinned rank here too, as name="p_override"."""
    if limit < 1:
        raise ValueError(
            "no candidate rank to choose from (a single series has none); "
            "pin the factor count with p_override (qrfactors fit --p, "
            "sim --p-override)"
        )
    if p_cap is None:
        return min(limit, default)
    return _check_rank(name, p_cap, limit)


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
    the hybrid sweep passes spent at each candidate rank, and orders the
    column order each rank's loop settled on, a fixed point of both of
    its boundaries; fit_rrqr takes its loading basis from
    orders[p_hat - 1]. The EVD fitter's eigenvalue-ratio curve uses the
    same record with epsilon 0 and neither passes nor orders.
    """

    candidates: tuple[RankCandidate, ...]
    epsilon: float
    p_hat: int
    p_cap: int
    passes: tuple[int, ...] = ()
    orders: tuple[tuple[int, ...], ...] = ()

    @classmethod
    def from_curve(cls, gammas, gammas_next, ratios, epsilon, passes,
                   orders) -> ModelOrderScan:
        """The record of a ratio curve over ranks 1..len(ratios), each
        with its pair of diagonal entries (or eigenvalues); p_hat is the
        first argmax of the ratios, so the lowest rank wins a tie."""
        candidates = tuple(
            RankCandidate(index=i, gamma=float(gamma),
                          gamma_next=float(gamma_next), ratio=float(ratio))
            for i, (gamma, gamma_next, ratio)
            in enumerate(zip(gammas, gammas_next, ratios), start=1))
        return cls(candidates=candidates, epsilon=float(epsilon),
                   p_hat=int(np.argmax(ratios)) + 1, p_cap=len(candidates),
                   passes=passes, orders=orders)

    def ratios(self) -> np.ndarray:
        return np.array([c.ratio for c in self.candidates])


class _Diagnostics(Mapping):
    """A fit's diagnostics: a read-only mapping, in the order `values`
    gives its keys, whose one deferred value, a callable in its key's
    place, is computed on its first read and kept. Membership, iteration
    and len read no value; ==, items(), dict() and {**d} read every one,
    as on a dict."""

    def __init__(self, values: dict):
        self._values = values

    def __getitem__(self, key):
        value = self._values[key]
        if callable(value):
            value = self._values[key] = value()
        return value

    def __contains__(self, key) -> bool:
        return key in self._values

    def __iter__(self):
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return repr(dict(self))


@dataclass(frozen=True)
class FactorModelFit:
    """A fitted factor model: loading basis, factor paths, and how we got them.

    factors holds q_hat.T applied to the demeaned observations, so
    q_hat @ factors is the model's reconstruction of the centered data.
    diagnostics maps names to method-specific scalars: for the pivoted
    fit the block singular values sigma_min(R11) and sigma_max(R22) of
    the decomposition behind q_hat (R22's from the projected trailing
    columns), the sweep passes behind it (1 after a scan: counted as
    settled, not run), and the ratio floor epsilon; eigenvalues or
    residual variance for the baselines. The pivoted fit's r22_max_sv
    is computed on its first read and then kept (fit_rrqr).
    """

    method: str
    p_hat: int
    q_hat: np.ndarray
    factors: np.ndarray
    scan: ModelOrderScan | None = None
    diagnostics: Mapping = field(default_factory=dict)

    def __post_init__(self):
        q, f = _frozen(self.q_hat), _frozen(self.factors)
        if q.ndim != 2 or f.ndim != 2 or q.shape[1] != f.shape[0]:
            raise ValueError(
                f"loading/factor shapes disagree: {q.shape} vs {f.shape}"
            )
        if self.p_hat != q.shape[1]:
            raise ValueError(f"p_hat={self.p_hat} but q_hat has {q.shape[1]} columns")
        object.__setattr__(self, "q_hat", q)
        object.__setattr__(self, "factors", f)


def scan_model_order(m_tilde, p_cap: int | None = None,
                     n: int | None = None) -> ModelOrderScan:
    """Estimate numerical rank from the ratio curve of R diagonals.

    For every candidate rank i in 1..p_cap a hybrid decomposition blocked
    at i is computed, each seeded with the previous candidate's
    permutation so the swap loops start at a fixed point of one of their
    two boundaries (rrqr._scan_orders). The i-th and (i+1)-th diagonal
    entries gamma_i, gamma_{i+1} of that decomposition, read from the
    packed output of one QR, feed the ratio

        r_i = (gamma_i + eps) / (gamma_{i+1} + eps)

    and the estimated rank is the i maximizing r_i (lowest on ties).

    Parameters
    ----------
    m_tilde : array-like
        The stacked lag-covariance matrix (or any K x n matrix to
        rank-scan).
    p_cap : int, optional
        Largest candidate rank, at most min(K, n) - 1; _rank_cap's
        default when omitted.
    n : int
        Sample count behind the matrix, used only to scale eps.
    """
    return _scan(_PivotSearch(m_tilde), p_cap, n)


def _scan(search, p_cap, n) -> ModelOrderScan:
    """scan_model_order on a pivot search (rrqr._PivotSearch): the curve
    at the search's unit scale, where nothing overflows, its gammas and
    epsilon mapped back; no power of two can move the ratios."""
    rows, cols = search.a.shape
    if n is None or n <= 0:
        raise ValueError("sample count n is required to scale the ratio floor")
    p_cap = _rank_cap(p_cap, min(rows, cols) - 1)
    gammas, gammas_next, passes, orders = zip(*_scan_orders(search, p_cap))
    if gammas[0] <= 0.0:
        raise ValueError("matrix is numerically zero; no rank to reveal")
    epsilon = gammas[0] / math.sqrt(rows * n)
    ratios = [(gamma + epsilon) / (gamma_next + epsilon)
              for gamma, gamma_next in zip(gammas, gammas_next)]
    return ModelOrderScan.from_curve(
        *map(search.unscaled, (gammas, gammas_next)), ratios,
        search.unscaled(epsilon), passes, orders)


def fit_rrqr(ts: TimeSeries, lag_lo: int = 1, lag_hi: int = 2,
             p_override: int | None = None,
             p_cap: int | None = None) -> FactorModelFit:
    """Fit the factor model by pivoted QR of the stacked lag covariances.

    Stacks the sample autocovariances for lags lag_lo..lag_hi of the
    normalized panel and estimates the factor count by
    scan_model_order. The loading basis is the first p_hat columns of
    the orthonormal factor of the scan's own order at p_hat, a fixed
    point of hybrid1 there, so no sweep runs: one RRQR both reveals the
    rank and gives the basis, read from one QR of LAPACK's first panel
    (rrqr._loading_basis). When p_override pins the rank there is no
    scan, and hybrid1's sweep starts from qr_cp's pivots; p_override may
    be min(K, n), where hybrid3, and so the scan's loop, is undefined.
    p_hat, q_hat and the ratio curve do not depend on the panel's scale;
    factor paths, gammas, epsilon and the block singular values are
    mapped back to it. A panel of constant series is rejected.
    diagnostics["r22_max_sv"] is computed on its first read, from M~ and
    the pivot search built again from the normalized panel (about 8-10
    ms at the paper cell), so the fit keeps that panel but neither `ts`
    nor a copy of M~, and callers that never read it, as rolling_eval
    and monte_carlo do not, never pay.
    """
    aug = build_augmented(ts, lag_lo, lag_hi)
    search = _PivotSearch(aug.scaled, aug.exponent)
    del aug  # the search holds its own unit-scaled copy
    scan = order = None
    if p_override is not None:
        p_hat = _rank_cap(p_override, min(search.a.shape), name="p_override")
    else:
        scan = _scan(search, p_cap, ts.N)
        p_hat = scan.p_hat
        order = scan.orders[p_hat - 1]
    q1, r11_min, passes, order = _loading_basis(search, p_hat, order)
    del search  # its unit-scaled copy is not needed past the basis
    q_hat = _frozen(q1)
    r22 = partial(_r22_on_read, *ts._normalized, range(lag_lo, lag_hi + 1),
                  tuple(order), q_hat)
    values = {"r11_min_sv": r11_min, "r22_max_sv": r22, "passes": float(passes)}
    if scan is not None:
        values["epsilon"] = scan.epsilon
    return _fit_record("RRQR", ts, q_hat, scan, _Diagnostics(values))


def _r22_on_read(z, e, lags, order, q_hat) -> float:
    """A fit's sigma_max(R22), on M~ rebuilt from the normalized panel z
    (times 2^e) and its pivot search, bit for bit the fit's."""
    search = _PivotSearch(_lag_products(z, lags), 2 * e)
    return _r22_max_sv(search, q_hat, order)


def _fit_record(method, ts, q_hat, scan, diagnostics) -> FactorModelFit:
    """The fit of basis q_hat to `ts`: its factor paths q_hat.T applied
    to the normalized panel, mapped back to the panel's scale."""
    z, e = ts._normalized
    return FactorModelFit(method=method, p_hat=q_hat.shape[1], q_hat=q_hat,
                          factors=_rescaled(q_hat.T @ z, e), scan=scan,
                          diagnostics=diagnostics)
