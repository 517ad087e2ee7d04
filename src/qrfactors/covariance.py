"""Sample lag-autocovariance matrices and the stacked augmented matrix.

The lag-k sample autocovariance of a K x N series is

    C(k) = (1/(N-k)) * sum_{n=1..N-k} (y_{n+k} - ybar)(y_n - ybar)^T

with ybar the full-sample mean of each series; note the 1/(N-k)
normalization (not 1/N) and the single shared mean for both terms.
The augmented matrix stacks C(a), ..., C(b) side by side into a
K x (b-a+1)K block row, which carries the factor column space while lagged
white noise averages out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tsdata import TimeSeries, _frozen


@dataclass(frozen=True)
class LagCovariance:
    lag: int
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(self.matrix))


@dataclass(frozen=True)
class AugmentedCov:
    """Side-by-side lag autocovariances C(lag_lo) ... C(lag_hi)."""

    lag_lo: int
    lag_hi: int
    matrix: np.ndarray
    K: int = field(init=False)
    N: int = 0

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(self.matrix))
        object.__setattr__(self, "K", self.matrix.shape[0])

    def block(self, j: int) -> np.ndarray:
        """The j-th K x K block (0-indexed), i.e. the lag lag_lo+j term."""
        k = self.K
        return self.matrix[:, j * k:(j + 1) * k]


def sample_autocov(ts: TimeSeries, lag: int) -> LagCovariance:
    """Sample autocovariance at the given lag (0 <= lag <= N-2)."""
    n = ts.N
    if not 0 <= lag <= n - 2:
        raise ValueError(
            f"lag must be in [0, {n - 2}] for N={n}, got {lag}"
        )
    centered = ts.values - ts.values.mean(axis=1, keepdims=True)
    mat = centered[:, lag:] @ centered[:, :n - lag].T / (n - lag)
    return LagCovariance(lag=lag, matrix=mat)


def build_augmented(ts: TimeSeries, lag_lo: int = 1, lag_hi: int = 5) -> AugmentedCov:
    """Stack sample autocovariances for lags lag_lo..lag_hi horizontally."""
    if not 1 <= lag_lo <= lag_hi:
        raise ValueError(f"need 1 <= lag_lo <= lag_hi, got {lag_lo}..{lag_hi}")
    if lag_hi > ts.N - 2:
        raise ValueError(
            f"lag_hi={lag_hi} too large for N={ts.N} (max {ts.N - 2})"
        )
    blocks = [sample_autocov(ts, l).matrix for l in range(lag_lo, lag_hi + 1)]
    matrix = np.hstack(blocks)
    if not np.isfinite(matrix).all():
        raise ValueError(
            "lag autocovariances overflow the float range; divide the panel "
            "by a constant near its scale"
        )
    return AugmentedCov(lag_lo=lag_lo, lag_hi=lag_hi, matrix=matrix, N=ts.N)
