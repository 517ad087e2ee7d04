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

# Smallest normal float. When a matrix's largest entry is at least this,
# underflow in its other entries costs at most machine epsilon times it.
_TINY = float(np.finfo(float).tiny)


def _require_float_range(matrix: np.ndarray, floor: float, what: str) -> None:
    """Raise ValueError, advising to rescale the panel, unless every entry
    of `matrix` is finite and its largest magnitude is at least `floor`.

    Each caller passes the floor its solver needs. A panel scaled far
    enough down makes every entry underflow to 0, and a fit of that would
    be arbitrary; scaled far enough up, entries overflow to inf or nan.
    """
    top = float(np.abs(matrix).max())
    if not floor <= top < np.inf:
        raise ValueError(
            f"{what} leave the float range (largest magnitude {top:.3e}); "
            "divide the panel by a constant near its scale"
        )


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
    _require_float_range(matrix, _TINY, "lag autocovariances")
    return AugmentedCov(lag_lo=lag_lo, lag_hi=lag_hi, matrix=matrix, N=ts.N)
