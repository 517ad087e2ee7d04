"""Latent factor models for multivariate time series via rank-revealing QR.

The estimator stacks sample lag-autocovariance matrices side by side and
reads the number of factors off the diagonal of a rank-revealing QR
decomposition of that augmented matrix; the leading orthonormal columns
give the loading subspace. EVD (Lam/Yao style eigen-ratio on the squared
autocovariance sum) and PCA (Bai-Ng information criterion) baselines are
included, along with seeded simulation generators, a Monte-Carlo driver,
and a rolling one-step-ahead forecast evaluator.
"""

from .tsdata import TimeSeries, load_csv, demean, log_returns
from .covariance import LagCovariance, AugmentedCov, sample_autocov, build_augmented
from .rrqr import (
    Permutation,
    QrFactors,
    RrqrResult,
    RrqrIterationError,
    gs_qr,
    qr_cp,
    stewart2,
    hybrid1,
    hybrid2,
    hybrid3,
    singular_values,
)
from .factor_rrqr import (
    RankCandidate,
    ModelOrderScan,
    FactorModelFit,
    scan_model_order,
    fit_rrqr,
)
from .baselines import (
    EvdSpectrum,
    evd_spectrum,
    fit_evd,
    fit_pca,
)
from .forecast_eval import (
    ArModel,
    ForecastReport,
    WindowRecord,
    yule_walker,
    forecast_one_step,
    rmse,
    rmse_conventional,
    forecast_error,
    fit_method,
    rolling_eval,
)
from .simgen import (
    SimConfig,
    SimDataset,
    gen_sim1,
    gen_sim2,
    hurst_cov,
    subspace_error,
    monte_carlo,
)

__version__ = "0.1.0"

__all__ = [
    "TimeSeries", "load_csv", "demean", "log_returns",
    "LagCovariance", "AugmentedCov", "sample_autocov", "build_augmented",
    "Permutation", "QrFactors", "RrqrResult", "RrqrIterationError",
    "gs_qr", "qr_cp", "stewart2", "hybrid1", "hybrid2", "hybrid3",
    "singular_values",
    "RankCandidate", "ModelOrderScan", "FactorModelFit",
    "scan_model_order", "fit_rrqr",
    "EvdSpectrum", "evd_spectrum", "fit_evd", "fit_pca",
    "ArModel", "ForecastReport", "WindowRecord", "yule_walker",
    "forecast_one_step", "rmse", "rmse_conventional", "forecast_error",
    "fit_method", "rolling_eval",
    "SimConfig", "SimDataset", "gen_sim1", "gen_sim2", "hurst_cov",
    "subspace_error", "monte_carlo",
    "__version__",
]
