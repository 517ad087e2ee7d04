"""Factor forecasting and evaluation: AR fits, one-step predictions,
error metrics, and a rolling out-of-sample protocol.

Factors extracted by any of the fitters are forecast one step ahead with
per-factor univariate AR models fit by Yule-Walker, and observation
forecasts are the loading basis applied to the factor forecasts, which
one block predictor, _ar_steps, makes. The rolling evaluation refits on
a sliding window every few days, projects each refit's span once, and
scores the one-step predictions against the realized values.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import solve_toeplitz

from .baselines import fit_evd, fit_pca
from .factor_rrqr import FactorModelFit, fit_rrqr
from .tsdata import TimeSeries


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
    the Toeplitz system positive semidefinite and the recursion stable.
    """
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
    return fit.q_hat @ _ar_steps(ar, hist, hist.shape[1])[:, 0]


def _ar_steps(ar: list[ArModel], paths: np.ndarray, start: int) -> np.ndarray:
    """Row i, column j: ar[i]'s prediction of paths[i] at position
    start + j from the values before it, up to the step after the last
    value. start must be at least every model's order."""
    steps = np.empty((len(ar), paths.shape[1] + 1 - start))
    for i, model in enumerate(ar):
        lags = sliding_window_view(paths[i, start - model.order:], model.order)
        steps[i] = lags @ np.asarray(model.coeffs)[::-1]
    return steps


def _check_against(fit: FactorModelFit, loading, factors) -> tuple[np.ndarray, np.ndarray]:
    h = np.asarray(loading, dtype=float)
    x = np.asarray(factors, dtype=float)
    recon = fit.q_hat @ fit.factors
    truth = h @ x
    if truth.shape != recon.shape:
        raise ValueError(
            f"truth has shape {truth.shape}, fitted reconstruction {recon.shape}"
        )
    return recon, truth


def rmse(fit: FactorModelFit, truth_loading, truth_factors) -> float:
    """Reconstruction error against the true common component.

    Sums the per-time 2-norms of the reconstruction residual (the norms
    themselves, not their squares), divides by K*N, and takes a square
    root. rmse_conventional is the usual quadratic-mean companion.
    """
    recon, truth = _check_against(fit, truth_loading, truth_factors)
    k, n = truth.shape
    total = float(np.linalg.norm(recon - truth, axis=0).sum())
    return math.sqrt(total / (k * n))


def rmse_conventional(fit: FactorModelFit, truth_loading, truth_factors) -> float:
    """Root mean squared entrywise reconstruction error."""
    recon, truth = _check_against(fit, truth_loading, truth_factors)
    k, n = truth.shape
    return float(np.linalg.norm(recon - truth)) / math.sqrt(k * n)


def forecast_error(predictions, actuals) -> float:
    """Mean over time of K^{-1/2} times the prediction residual 2-norm."""
    pred = np.asarray(predictions, dtype=float)
    act = np.asarray(actuals, dtype=float)
    if pred.shape != act.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {act.shape}")
    if pred.ndim != 2 or pred.shape[1] == 0:
        raise ValueError("need at least one prediction column")
    k = pred.shape[0]
    norms = np.linalg.norm(pred - act, axis=0)
    return float(norms.mean() / math.sqrt(k))


def _insample_forecast_error(fit: FactorModelFit, ts: TimeSeries,
                             ar_order: int) -> float:
    """forecast_error of AR(ar_order) forecasts of the fit's own factor
    paths, at every sample from 2 * ar_order on, plus the panel mean."""
    ar_models = [yule_walker(row, ar_order) for row in fit.factors]
    start = 2 * ar_order
    steps = _ar_steps(ar_models, fit.factors[:, :-1], start)
    mean = ts.values.mean(axis=1, keepdims=True)
    return forecast_error(fit.q_hat @ steps + mean, ts.values[:, start:])


METHODS = ("rrqr", "evd", "pca")


def check_methods(methods) -> None:
    """Reject an empty method list, or one naming a method fit_method
    does not know, with fit_method's message."""
    for method in methods or ("",):
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; expected "
                             f"{', '.join(METHODS[:-1])}, or {METHODS[-1]}")


def fit_method(method: str, ts: TimeSeries, lag_lo: int = 1, lag_hi: int = 2,
               p_override: int | None = None,
               p_cap: int | None = None) -> FactorModelFit:
    """Fit `ts` with the named method, one of METHODS.

    For pca, p_cap is the information criterion's search limit and the
    lag range is unused.
    """
    check_methods((method,))
    if method == "rrqr":
        return fit_rrqr(ts, lag_lo, lag_hi, p_override=p_override, p_cap=p_cap)
    if method == "evd":
        return fit_evd(ts, lag_lo, lag_hi, p_override=p_override, p_cap=p_cap)
    return fit_pca(ts, p_max=p_cap, p_override=p_override)


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
    criterion's search limit.
    """
    method = method.lower()
    if window < 3:
        raise ValueError(f"window must be at least 3, got {window}")
    if refit_stride < 1 or eval_len < 1:
        raise ValueError("refit_stride and eval_len must be positive")
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
        wmean = values[:, w0:block_start].mean(axis=1, keepdims=True)
        ar_models = [yule_walker(row, ar_order) for row in fit.factors]
        resid = (values[:, w0:block_start] - wmean) - fit.q_hat @ fit.factors
        recon_rmse = float(np.linalg.norm(resid)) / math.sqrt(fit.factors.shape[1] * ts.K)
        records.append(WindowRecord(start=w0, p_hat=fit.p_hat, rmse=recon_rmse))
        block_end = min(block_start + refit_stride, ts.N)
        paths = fit.q_hat.T @ (values[:, w0:block_end - 1] - wmean)
        preds[:, block_start - first_target:block_end - first_target] = (
            fit.q_hat @ _ar_steps(ar_models, paths, window) + wmean)
    fe = forecast_error(preds, values[:, first_target:])
    return ForecastReport(
        method=method,
        p_hat_mean=float(np.mean([r.p_hat for r in records])),
        rmse_mean=float(np.mean([r.rmse for r in records])),
        fe=fe,
        per_window=tuple(records),
    )
