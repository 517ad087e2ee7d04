"""Factor forecasting and evaluation: AR fits, one-step predictions,
error metrics, and a rolling out-of-sample protocol.

Factors extracted by any of the fitters are forecast one step ahead with
per-factor univariate AR models fit by Yule-Walker. One batched fit,
_yule_walker_rows, takes every factor path's autocovariances in one
product and solves all their Toeplitz systems in one call; one block
predictor, _ar_steps, advances every path from that coefficient matrix
in one product, and the loading basis maps the factor forecasts to
observation forecasts. The rolling evaluation refits on a sliding
window every few days, projects each refit's span once, and scores the
one-step predictions against the realized values.

Like the fits, this layer works at a power-of-two unit scale: each
factor path is scaled by the power of two above its peak before its
autocovariances, and each residual norm is taken at the even power of
two above the residual's peak and mapped back, saturating. The scaling
is exact, so a panel times 2^s gives the same ranks and AR coefficients,
errors times 2^s and rmse, the square root of a sum of norms, times
2^(s/2), with no autocovariance or square overflowing or underflowing
on the way.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .baselines import fit_evd, fit_pca
from .factor_rrqr import _RANK_RULES, FactorModelFit, fit_rrqr
from .tsdata import TimeSeries, _rescaled


@dataclass(frozen=True)
class ArModel:
    """Univariate autoregression: x[t] ~ sum_j coeffs[j-1] * x[t-j]."""

    order: int
    coeffs: tuple[float, ...]
    noise_var: float

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if self.order != len(self.coeffs):
            raise ValueError(
                f"order {self.order} disagrees with {len(self.coeffs)} coefficients"
            )
        if self.noise_var < 0.0:
            raise ValueError("noise_var must be non-negative")


@dataclass(frozen=True)
class WindowRecord:
    """One rolling-window fit: start index, chosen rank, and the
    in-window reconstruction residual (root mean square of what the
    fitted basis fails to explain)."""

    start: int
    p_hat: int
    rmse: float


@dataclass(frozen=True)
class ForecastReport:
    """Aggregate of a rolling evaluation.

    fe is the mean scaled one-step forecast error over the whole
    evaluation span; rmse_mean averages the per-window reconstruction
    residuals (ground truth is unavailable on real data, so the residual
    stands in).
    """

    method: str
    p_hat_mean: float
    rmse_mean: float
    fe: float
    per_window: tuple[WindowRecord, ...]


def yule_walker(series, order: int) -> ArModel:
    """Fit an AR(order) model by solving the Toeplitz normal equations.

    Autocovariances use the 1/N normalization at every lag, which keeps
    the Toeplitz system positive definite for any non-constant series.
    """
    x = np.asarray(series, dtype=float).ravel()
    coeffs, noise_var = _yule_walker_rows(x[None, :], order)
    return ArModel(order=order, coeffs=tuple(coeffs[0]),
                   noise_var=float(noise_var[0]))


def _yule_walker_rows(paths: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """yule_walker for every row of an (m, n) array at once: coefficients
    (m, order), lag 1 first, and noise variances (m,).

    Each row is scaled by the power of two above its peak, centred and
    padded with order zeros, so one product against its sliding windows
    gives the 1/N autocovariances at lags 0..order (the padding adds
    exact zeros) with no product overflowing or underflowing, and one
    batched solve takes all m Toeplitz systems. The scaling is exact:
    the coefficients are those of the raw path, and each noise variance
    maps back by the square of its row's power, saturating.
    """
    x = np.asarray(paths, dtype=float)
    m, n = x.shape
    if not 1 <= order <= n // 2:
        raise ValueError(f"order must be in [1, {n // 2}], got {order}")
    if not np.isfinite(x).all():
        raise ValueError("series contains NaN or Inf")
    e = np.frexp(np.abs(x).max(axis=1))[1]
    padded = np.zeros((m, n + order))
    xc = padded[:, :n]
    np.ldexp(x, -e[:, None], out=xc)
    xc -= xc.sum(axis=1, keepdims=True) / n
    cov = np.einsum("it,itj->ij", xc,
                    sliding_window_view(padded, order + 1, axis=1)) / n
    if (cov[:, 0] <= 0.0).any():
        raise ValueError("series has zero variance; no AR structure to fit")
    lag = np.arange(order)
    toeplitz = cov[:, abs(lag[:, None] - lag)]
    coeffs = np.linalg.solve(toeplitz, cov[:, 1:, None])[:, :, 0]
    noise_var = np.maximum(cov[:, 0] - np.einsum("ij,ij->i", coeffs, cov[:, 1:]),
                           0.0)
    return coeffs, _rescaled(noise_var, 2 * e)


def forecast_one_step(fit: FactorModelFit, ar: list[ArModel],
                      history: np.ndarray) -> np.ndarray:
    """One-step observation forecast from per-factor AR models.

    history holds the factor paths (one row per factor, oldest first);
    each factor is advanced one step by its own AR model and the loading
    basis maps the factor forecasts back to observation space. A
    rank-zero fit forecasts zero and warns.
    """
    k = fit.q_hat.shape[0]
    if fit.p_hat == 0:
        warnings.warn("rank-zero fit: forecasting the mean (zero) vector")
        return np.zeros(k)
    hist = np.asarray(history, dtype=float)
    if hist.ndim != 2 or hist.shape[0] != fit.p_hat:
        raise ValueError(
            f"history must have {fit.p_hat} rows, got shape {hist.shape}"
        )
    if len(ar) != fit.p_hat:
        raise ValueError(f"need {fit.p_hat} AR models, got {len(ar)}")
    order = max(model.order for model in ar)
    if hist.shape[1] < order:
        raise ValueError(
            f"history length {hist.shape[1]} is shorter than AR order {order}")
    coeffs = np.array([model.coeffs + (0.0,) * (order - model.order)
                       for model in ar])
    return fit.q_hat @ _ar_steps(coeffs, hist, hist.shape[1])[:, 0]


def _ar_steps(coeffs: np.ndarray, paths: np.ndarray, start: int) -> np.ndarray:
    """Row i, column j: the AR model of coeffs[i] (lag 1 first) predicting
    paths[i] at position start + j from the values before it, up to the
    step after the last value. start must be at least coeffs.shape[1]."""
    order = coeffs.shape[1]
    lags = sliding_window_view(paths[:, start - order:], order, axis=1)
    return np.einsum("ijk,ik->ij", lags, coeffs[:, ::-1])


def _unit_scaled(a: np.ndarray) -> tuple[np.ndarray, int]:
    """a * 2^-e and e, with 2^e the even power of two above a's peak
    magnitude, so that no square of the scaled entries overflows or
    underflows a residual to a false zero, and a square root maps back
    by 2^(e/2); a zero array has e = 0. Power-of-two scaling is exact,
    so a norm taken here and mapped back has the bits of the raw one
    wherever that is finite and nonzero."""
    e = math.frexp(float(np.abs(a).max(initial=0.0)))[1]
    e += e & 1
    return np.ldexp(a, -e), e


def _reconstruction_errors(fit: FactorModelFit, loading,
                           factors) -> tuple[float, float]:
    """(rmse, rmse_conventional) of the fit against the common component
    loading @ factors, from one reconstruction residual."""
    h = np.asarray(loading, dtype=float)
    x = np.asarray(factors, dtype=float)
    recon = fit.q_hat @ fit.factors
    truth = h @ x
    if truth.shape != recon.shape:
        raise ValueError(
            f"truth has shape {truth.shape}, fitted reconstruction {recon.shape}"
        )
    k, n = truth.shape
    resid, e = _unit_scaled(recon - truth)
    total = float(np.linalg.norm(resid, axis=0).sum())
    return (float(_rescaled(math.sqrt(total / (k * n)), e // 2)),
            float(_rescaled(float(np.linalg.norm(resid)) / math.sqrt(k * n), e)))


def rmse(fit: FactorModelFit, truth_loading, truth_factors) -> float:
    """Reconstruction error against the true common component.

    Sums the per-time 2-norms of the reconstruction residual (the norms
    themselves, not their squares), divides by K*N, and takes a square
    root. rmse_conventional is the usual quadratic-mean companion.
    """
    return _reconstruction_errors(fit, truth_loading, truth_factors)[0]


def rmse_conventional(fit: FactorModelFit, truth_loading, truth_factors) -> float:
    """Root mean squared entrywise reconstruction error."""
    return _reconstruction_errors(fit, truth_loading, truth_factors)[1]


def forecast_error(predictions, actuals) -> float:
    """Mean over time of K^{-1/2} times the prediction residual 2-norm."""
    pred = np.asarray(predictions, dtype=float)
    act = np.asarray(actuals, dtype=float)
    if pred.shape != act.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {act.shape}")
    if pred.ndim != 2 or pred.shape[1] == 0:
        raise ValueError("need at least one prediction column")
    k = pred.shape[0]
    resid, e = _unit_scaled(pred - act)
    norms = np.linalg.norm(resid, axis=0)
    return float(_rescaled(norms.mean() / math.sqrt(k), e))


def _insample_forecast_error(fit: FactorModelFit, ts: TimeSeries,
                             ar_order: int) -> float:
    """forecast_error of AR(ar_order) forecasts of the fit's own factor
    paths, at every sample from 2 * ar_order on, plus the panel mean."""
    coeffs, _ = _yule_walker_rows(fit.factors, ar_order)
    start = 2 * ar_order
    steps = _ar_steps(coeffs, fit.factors[:, :-1], start)
    mean = ts.values.mean(axis=1, keepdims=True)
    return forecast_error(fit.q_hat @ steps + mean, ts.values[:, start:])


METHODS = tuple(_RANK_RULES)


def check_methods(methods) -> tuple[str, ...]:
    """The method names lower-cased, the one place names are matched.

    Rejects an empty method list, or one naming a method fit_method does
    not know, with fit_method's message.
    """
    methods = tuple(methods)
    for method in methods or ("",):
        if method.lower() not in METHODS:
            raise ValueError(f"unknown method {method!r}; expected "
                             f"{', '.join(METHODS[:-1])}, or {METHODS[-1]}")
    return tuple(method.lower() for method in methods)


def fit_method(method: str, ts: TimeSeries, lag_lo: int = 1, lag_hi: int = 2,
               p_override: int | None = None,
               p_cap: int | None = None) -> FactorModelFit:
    """Fit `ts` with the named method, one of METHODS in any case.

    For pca, p_cap is the information criterion's search limit and the
    lag range is unused.
    """
    (method,) = check_methods((method,))
    if method == "rrqr":
        return fit_rrqr(ts, lag_lo, lag_hi, p_override=p_override, p_cap=p_cap)
    if method == "evd":
        return fit_evd(ts, lag_lo, lag_hi, p_override=p_override, p_cap=p_cap)
    return fit_pca(ts, p_cap=p_cap, p_override=p_override)


def rolling_eval(ts: TimeSeries, method: str, window: int = 500,
                 refit_stride: int = 10, ar_order: int = 10,
                 eval_len: int = 400, lag_lo: int = 1, lag_hi: int = 2,
                 p_cap: int | None = None) -> ForecastReport:
    """Rolling one-step forecast evaluation over the last eval_len points.

    The model is fit on the `window` observations preceding the first
    target, per-factor AR models are fit on the window's factor paths,
    and each of the next refit_stride targets is forecast one step ahead
    using realized observations as they arrive, from one projection of
    the window and block. Then the window slides forward refit_stride
    points and everything refits. Forecasts carry each window's own
    mean, which is added back before scoring.

    For the PCA method p_cap is passed through as the information
    criterion's search limit. Each refit reads `window` samples, so
    ar_order must be at most window // 2 and, for rrqr and evd, lag_hi at
    most window - 2; both are checked before the first fit.
    """
    (method,) = check_methods((method,))
    if window < 3:
        raise ValueError(f"window must be at least 3, got {window}")
    if refit_stride < 1 or eval_len < 1:
        raise ValueError("refit_stride and eval_len must be positive")
    if not 1 <= ar_order <= window // 2:
        raise ValueError(
            f"ar_order (--ar) must be in [1, {window // 2}], half the "
            f"window={window} (--window) its AR fits read, got {ar_order}")
    if method != "pca" and lag_hi > window - 2:
        raise ValueError(
            f"lag_hi={lag_hi} (--lag-hi or --m) is too large for "
            f"window={window} (--window): the lags reach at most window - 2 "
            f"= {window - 2}")
    if ts.N < window + eval_len:
        raise ValueError(
            f"need at least window + eval_len = {window + eval_len} samples, "
            f"got {ts.N}"
        )
    values = ts.values
    first_target = ts.N - eval_len
    preds = np.empty((ts.K, eval_len))
    records = []
    for block_start in range(first_target, ts.N, refit_stride):
        w0 = block_start - window
        fit = fit_method(method, TimeSeries(values=values[:, w0:block_start]),
                         lag_lo, lag_hi, p_cap=p_cap)
        # an rrqr fit holds its window's panel for a sigma_max(R22) read
        # that nothing here makes: keep its basis and factor paths only
        q_hat, factors = fit.q_hat, fit.factors
        del fit
        wmean = values[:, w0:block_start].mean(axis=1, keepdims=True)
        coeffs, _ = _yule_walker_rows(factors, ar_order)
        resid, e = _unit_scaled((values[:, w0:block_start] - wmean)
                                - q_hat @ factors)
        recon_rmse = float(_rescaled(
            float(np.linalg.norm(resid)) / math.sqrt(factors.shape[1] * ts.K), e))
        records.append(WindowRecord(start=w0, p_hat=q_hat.shape[1], rmse=recon_rmse))
        block_end = min(block_start + refit_stride, ts.N)
        paths = q_hat.T @ (values[:, w0:block_end - 1] - wmean)
        preds[:, block_start - first_target:block_end - first_target] = (
            q_hat @ _ar_steps(coeffs, paths, window) + wmean)
    fe = forecast_error(preds, values[:, first_target:])
    return ForecastReport(
        method=method,
        p_hat_mean=float(np.mean([r.p_hat for r in records])),
        rmse_mean=float(np.mean([r.rmse for r in records])),
        fe=fe,
        per_window=tuple(records),
    )
