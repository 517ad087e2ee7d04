"""Seeded synthetic benchmarks: two factor-model scenarios, a
long-memory noise covariance, subspace error metrics, and a Monte-Carlo
driver that aggregates fits across trials.

Scenario 1 is a single cosine-profile factor following an AR(1); its
observations get independent Gaussian noise. Scenario 2 has two moving-
average factors, the second loading only the first half of the series
(a weak factor), with either white noise or correlated noise drawn from
a scaled fractional-Brownian-motion covariance. Scenario 2's settings
are the paper's constants: MA coefficient 0.5 for both factors, and for
the correlated noise Hurst exponent 0.6 and scale 0.1.

All generators are pure functions of their configuration: one generator
instance per trial, a documented draw order, and no global state, so a
(config, seed) pair is bitwise reproducible within this implementation.
numpy's default PCG64 generator is the named RNG.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import lru_cache
from multiprocessing import get_context

import numpy as np

from .covariance import _lag_range
from .factor_rrqr import _fit_ranks
from .forecast_eval import (_insample_forecast_error, _reconstruction_errors,
                            check_methods, fit_method)
from .tsdata import TimeSeries, _frozen

_SIM1_AR_COEFF = 0.9
_SIM1_NOISE_STD = 2.0
_SIM1_BURN_IN = 1000
_LOADING_HALF_WIDTH = 4.0  # loadings are U(-4, 4)
_SIM2_MA_COEFF = 0.5
_SIM2_HURST = 0.6
_SIM2_NOISE_SCALE = 0.1
_FE_AR_ORDER = 10
# Read by the BLAS libraries numpy may load, once, when they load.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")


@dataclass(frozen=True)
class SimConfig:
    """Everything a scenario needs to produce one dataset.

    The scenario-2 factors are MA(1) and MA(2) at coefficient 0.5, the
    second weaker, its loading supported on only half the series.
    noise_kind "hurst" (scenario 2 only) draws its noise correlated
    across series: 0.1 times the fBm covariance at Hurst exponent 0.6.
    half_support (scenario 1 only) zeroes the lower half of its loading
    column. A config asking a scenario for a setting it does not draw
    is refused, so no report records a setting its data lack.
    The lags must satisfy 1 <= lag_lo <= lag_hi <= n - 2, the stacked
    covariance's rule (covariance._lag_range), so that every fit can
    take them.
    """

    scenario: str
    k: int
    n: int
    seed: int
    lag_lo: int = 1
    lag_hi: int = 2
    noise_kind: str = "iid_identity"
    half_support: bool = False

    def __post_init__(self):
        if self.scenario not in ("sim1", "sim2"):
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.k < 2:
            raise ValueError(f"need at least 2 series, got {self.k}")
        if self.scenario == "sim2" and (self.k < 4 or self.k % 2):
            raise ValueError(
                f"scenario sim2 needs an even series count >= 4, got {self.k}"
            )
        if self.n < 10:
            raise ValueError(f"need at least 10 samples, got {self.n}")
        _lag_range(self.n, self.lag_lo, self.lag_hi)
        if self.noise_kind not in ("iid_identity", "hurst"):
            raise ValueError(f"unknown noise kind {self.noise_kind!r}")
        if self.scenario == "sim1" and self.noise_kind == "hurst":
            raise ValueError("scenario sim1 draws iid noise only: drop "
                             "--noise hurst, or use --scenario sim2")
        if self.scenario == "sim2" and self.half_support:
            raise ValueError("scenario sim2 has no half-support option: drop "
                             "--half-support, or use --scenario sim1")


@dataclass(frozen=True)
class SimDataset:
    """A generated panel: observations plus the ground truth behind them."""

    y: TimeSeries
    h: np.ndarray
    x: np.ndarray
    p: int

    def __post_init__(self):
        for name in ("h", "x"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))


def hurst_cov(k: int, w: float) -> np.ndarray:
    """Fractional-Brownian-motion covariance on integer sites 1..k.

    sigma_ij = (i^{2w} - |i-j|^{2w} + j^{2w}) / 2; at w = 1/2 this is
    exactly min(i, j), ordinary Brownian covariance.
    """
    if not 0.0 < w < 1.0:
        raise ValueError(f"Hurst parameter must be in (0,1), got {w}")
    if k < 1:
        raise ValueError(f"need at least one site, got {k}")
    sites = np.arange(1, k + 1, dtype=float)
    ii, jj = np.meshgrid(sites, sites, indexing="ij")
    # evaluate through (min, max) so the matrix is symmetric bit for bit
    lo, hi = np.minimum(ii, jj), np.maximum(ii, jj)
    return 0.5 * (lo ** (2 * w) - (hi - lo) ** (2 * w) + hi ** (2 * w))


@lru_cache(maxsize=8)
def _hurst_root(k: int) -> np.ndarray:
    """Symmetric square root of the scenario-2 correlated-noise covariance.

    The covariance is the fBm covariance at Hurst exponent w = 0.6 on
    the unit grid {1/k, ..., 1} (hurst_cov rescaled by k^{-2w}) times
    0.1. The unit-grid normalization keeps the noise floor comparable
    across panel widths; with raw integer sites the top noise eigenvalue
    grows like k^{2w+1} and drowns the half-support factor entirely.
    """
    w = _SIM2_HURST
    cov = _SIM2_NOISE_SCALE * hurst_cov(k, w) / float(k) ** (2 * w)
    lam, u = np.linalg.eigh((cov + cov.T) / 2.0)
    root = u @ np.diag(np.sqrt(np.clip(lam, 0.0, None))) @ u.T
    root.setflags(write=False)
    return root


def gen_sim1(k: int, n: int, seed: int, half_support: bool = False) -> SimDataset:
    """Single cosine-loaded AR(1) factor with independent Gaussian noise.

    Loading entry i is 2*cos(2*pi*i/k) for i = 1..k. The factor follows
    x[t] = 0.9 x[t-1] + eta[t] with eta of variance 4, run through a
    1000-sample burn-in; observation noise is iid with variance 4. Draw
    order: factor innovations, then noise.
    """
    if k < 2:
        raise ValueError(f"need at least 2 series, got {k}")
    if n < 10:
        raise ValueError(f"need at least 10 samples, got {n}")
    # imported here: scipy.signal, and the scipy.stats it loads, are
    # most of the package's import time, and only this draw uses them
    from scipy.signal import lfilter

    rng = np.random.default_rng(seed)
    eta = _SIM1_NOISE_STD * rng.standard_normal(_SIM1_BURN_IN + n)
    noise = _SIM1_NOISE_STD * rng.standard_normal((k, n))
    x = lfilter([1.0], [1.0, -_SIM1_AR_COEFF], eta)[_SIM1_BURN_IN:]
    h = 2.0 * np.cos(2.0 * np.pi * np.arange(1, k + 1) / k)
    if half_support:
        h = h.copy()
        h[k // 2:] = 0.0
    hcol = h.reshape(k, 1)
    xrow = x.reshape(1, n)
    y = hcol @ xrow + noise
    return SimDataset(y=TimeSeries(values=y), h=hcol, x=xrow, p=1)


def gen_sim2(config: SimConfig) -> SimDataset:
    """Two MA factors, the second supported on only half the series.

    Factor 1 is x[t] = e[t] + 0.5*e[t-1]; factor 2 is
    x[t] = e[t] + 0.5*e[t-2], each from its own unit-normal
    innovation stream. Loading 1 is U(-4,4) everywhere; loading 2 is
    U(-4,4) on the first k/2 entries and exactly zero after. Noise is
    either iid unit-normal or correlated via the fBm covariance root.
    Draw order: factor-1 innovations, factor-2 innovations, loading 1,
    loading 2, noise.
    """
    if config.scenario != "sim2":
        raise ValueError(f"config is for scenario {config.scenario!r}")
    k, n = config.k, config.n
    rng = np.random.default_rng(config.seed)
    e1 = rng.standard_normal(n + 1)
    e2 = rng.standard_normal(n + 2)
    h1 = rng.uniform(-_LOADING_HALF_WIDTH, _LOADING_HALF_WIDTH, k)
    h2 = np.zeros(k)
    h2[:k // 2] = rng.uniform(-_LOADING_HALF_WIDTH, _LOADING_HALF_WIDTH, k // 2)
    gauss = rng.standard_normal((k, n))
    if config.noise_kind == "hurst":
        noise = _hurst_root(k) @ gauss
    else:
        noise = gauss
    x1 = e1[1:] + _SIM2_MA_COEFF * e1[:-1]
    x2 = e2[2:] + _SIM2_MA_COEFF * e2[:-2]
    h = np.column_stack([h1, h2])
    x = np.vstack([x1, x2])
    return SimDataset(y=TimeSeries(values=h @ x + noise), h=h, x=x, p=2)


def _gen_dataset(config: SimConfig) -> SimDataset:
    if config.scenario == "sim1":
        return gen_sim1(config.k, config.n, config.seed,
                        half_support=config.half_support)
    return gen_sim2(config)


def subspace_error(q_hat, q_true, mode: str = "projector",
                   norm: str = "2") -> float:
    """Distance between the column spans of two orthonormal bases.

    projector mode compares the orthogonal projectors (basis-invariant
    and defined even when the two bases have different widths);
    aligned-direct mode, for single columns only, flips the sign of
    q_hat to best match q_true and returns the direct difference norm.
    norm selects the spectral ("2") or Frobenius ("fro") matrix norm.
    """
    qh = np.atleast_2d(np.asarray(q_hat, dtype=float))
    qt = np.atleast_2d(np.asarray(q_true, dtype=float))
    if qh.shape[0] == 1 and qh.size > 1:
        qh = qh.T
    if qt.shape[0] == 1 and qt.size > 1:
        qt = qt.T
    if qh.shape[0] != qt.shape[0]:
        raise ValueError(f"row counts differ: {qh.shape[0]} vs {qt.shape[0]}")
    if norm not in ("2", "fro"):
        raise ValueError(f"unknown norm {norm!r}")
    if mode == "projector":
        diff = qh @ qh.T - qt @ qt.T
        return float(np.linalg.norm(diff, 2 if norm == "2" else "fro"))
    if mode == "aligned-direct":
        if qh.shape[1] != 1 or qt.shape[1] != 1:
            raise ValueError("aligned-direct mode is defined for single columns")
        sign = 1.0 if float(qh[:, 0] @ qt[:, 0]) >= 0.0 else -1.0
        return float(np.linalg.norm(sign * qh[:, 0] - qt[:, 0]))
    raise ValueError(f"unknown mode {mode!r}")


def _true_basis(dataset: SimDataset) -> np.ndarray:
    """Orthonormal basis for the span of the true loading columns."""
    q, _ = np.linalg.qr(dataset.h)
    return q


def _run_trial(config: SimConfig, trial: int, methods: tuple[str, ...],
               outputs: frozenset, p_override: int | None,
               p_cap: int | None) -> dict:
    """One Monte-Carlo trial: generate, fit each method, measure."""
    dataset = _gen_dataset(replace(config, seed=config.seed + trial))
    ts = dataset.y
    q_true = _true_basis(dataset)
    out: dict = {"trial": trial, "methods": {}, "failures": []}
    for method in methods:
        try:
            fit = fit_method(method, ts, config.lag_lo, config.lag_hi,
                             p_override=p_override, p_cap=p_cap)
            cell: dict = {"p_hat": fit.p_hat}
            if "errors" in outputs:
                if fit.p_hat == dataset.p == 1:
                    err = subspace_error(fit.q_hat, q_true, "aligned-direct")
                else:
                    err = subspace_error(fit.q_hat, q_true, "projector")
                cell["error"] = err
            if "ratios" in outputs and fit.scan is not None:
                cell["ratios"] = fit.scan.ratios().tolist()
            if "rmse" in outputs:
                cell["rmse"], cell["rmse_conventional"] = (
                    _reconstruction_errors(fit, dataset.h, dataset.x))
            if "forecast" in outputs:
                cell["fe"] = _insample_forecast_error(fit, ts, _FE_AR_ORDER)
            out["methods"][method] = cell
        except Exception as exc:  # noqa: BLE001 - per-trial isolation
            out["failures"].append({"method": method, "message": str(exc)})
    return out


def _mc_worker(args) -> dict:
    return _run_trial(*args)


@contextmanager
def _single_thread_blas_pool(workers: int):
    """Process pool whose workers each run BLAS on one thread.

    Workers are spawned, not forked, so each starts a fresh interpreter
    that loads BLAS under the environment it inherits; the thread
    variables are set to 1 for the pool's lifetime and restored after.
    The parent's BLAS is loaded already and keeps its threads. Without
    this every worker starts BLAS's default thread count and the workers
    oversubscribe the cores.
    """
    saved = {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=get_context("spawn")) as pool:
            yield pool
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def _aggregate(trial_rows: list[dict], methods: tuple[str, ...],
               outputs: frozenset) -> dict:
    report: dict = {"per_method": {}, "failures": []}
    for row in trial_rows:
        for failure in row["failures"]:
            report["failures"].append({"trial": row["trial"], **failure})
    for method in methods:
        cells = [row["methods"][method] for row in trial_rows
                 if method in row["methods"]]
        agg: dict = {"trials_ok": len(cells)}
        if not cells:
            report["per_method"][method] = agg
            continue
        p_hats = np.array([c["p_hat"] for c in cells])
        agg["p_hat_mean"] = float(p_hats.mean())
        agg["p_hat_median"] = float(np.median(p_hats))
        counts = {}
        for value in p_hats:
            counts[int(value)] = counts.get(int(value), 0) + 1
        agg["p_hat_counts"] = dict(sorted(counts.items()))
        for key in ("error", "rmse", "rmse_conventional", "fe"):
            values = np.array([c[key] for c in cells if key in c])
            if values.size:
                agg[f"{key}_mean"] = float(values.mean())
                agg[f"{key}_std"] = float(values.std(ddof=1)) if values.size > 1 else 0.0
        if "ratios" in outputs:
            curves = [c["ratios"] for c in cells if "ratios" in c]
            if curves:
                arr = np.array(curves)
                agg["ratio_mean"] = arr.mean(axis=0).tolist()
                agg["ratio_std"] = (arr.std(axis=0, ddof=1).tolist()
                                    if arr.shape[0] > 1
                                    else [0.0] * arr.shape[1])
        report["per_method"][method] = agg
    return report


def monte_carlo(config: SimConfig, trials: int,
                methods=("rrqr", "evd"), outputs=("errors",),
                p_override: int | None = None, p_cap: int | None = None,
                threads: int | None = None) -> dict:
    """Run seeded trials of a scenario and aggregate per-method results.

    Trial t uses seed config.seed + t. methods picks the fitters to
    compare; outputs selects what to measure per trial: "errors"
    (subspace distance to the true loading span), "ratios" (the
    rank-scan or eigenvalue ratio curve), "rmse" (reconstruction error
    against the true common component, both definitions), "forecast"
    (mean one-step factor-forecast error, which needs n > 20). An empty
    or unknown method list, a p_override or p_cap that a method's fit of
    a k x n panel refuses (factor_rrqr._fit_ranks), or threads below 1
    raises before any trial runs; individual trial failures are recorded
    in the report, not raised. threads None runs the trials serially.

    threads > 1 distributes trials across that many worker processes,
    each with single-threaded BLAS (_single_thread_blas_pool), and
    aggregation happens in trial order. So the report does not depend on
    the worker count when the calling process runs BLAS on one thread
    too; with more, its serial trials round differently in the last bits
    from the workers' (README, "Numerical notes").
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if threads is not None and threads < 1:
        raise ValueError(f"threads (--threads) must be >= 1, got {threads}")
    methods = check_methods(methods)
    for method in methods:
        _fit_ranks(method, config.k, config.n, p_override, p_cap)
    outputs = frozenset(outputs)
    known = {"errors", "ratios", "rmse", "forecast"}
    if not outputs <= known:
        raise ValueError(f"unknown outputs: {sorted(outputs - known)}")
    if "forecast" in outputs and config.n <= 2 * _FE_AR_ORDER:
        raise ValueError(
            f"the forecast output scores AR({_FE_AR_ORDER}) forecasts from "
            f"sample {2 * _FE_AR_ORDER} on, so it needs n > "
            f"{2 * _FE_AR_ORDER}, got n={config.n}"
        )
    jobs = [(config, t, methods, outputs, p_override, p_cap)
            for t in range(trials)]
    if threads is not None and threads > 1 and trials > 1:
        with _single_thread_blas_pool(threads) as pool:
            rows = list(pool.map(_mc_worker, jobs, chunksize=max(1, trials // (4 * threads))))
    else:
        rows = [_run_trial(*job) for job in jobs]
    report = _aggregate(rows, methods, outputs)
    report["trials"] = trials
    report["methods"] = list(methods)
    report["outputs"] = sorted(outputs)
    report["seed"] = config.seed
    report["scenario"] = config.scenario
    return report
