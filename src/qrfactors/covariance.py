"""Sample lag-autocovariance matrices and the stacked augmented matrix.

The lag-k sample autocovariance of a K x N series is

    C(k) = (1/(N-k)) * sum_{n=1..N-k} (y_{n+k} - ybar)(y_n - ybar)^T

with ybar the full-sample mean of each series; note the 1/(N-k)
normalization (not 1/N) and the single shared mean for both terms.
The augmented matrix stacks C(a), ..., C(b) side by side into a
K x (b-a+1)K block row, which carries the factor column space while lagged
white noise averages out.

Every covariance is read from the panel centered and scaled by an exact
power of two (TimeSeries._normalized), so nothing a fit reads from it
depends on the panel's scale; each result also holds the exponent that
maps it back exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tsdata import TimeSeries, _frozen


def _rescaled(x, exp: int):
    """x * 2^exp, saturating to 0 or inf where it leaves the float range."""
    with np.errstate(over="ignore"):
        return np.ldexp(x, exp)


class _Scaled:
    """A covariance held as `scaled`, read from the normalized panel, and
    `exponent`: matrix == scaled * 2^exponent, at the panel's own scale
    and saturating to 0 or inf where it leaves the float range."""

    def __post_init__(self):
        s = self.scaled  # the builders below hand over fresh read-only arrays
        if not (isinstance(s, np.ndarray) and s.dtype == float
                and s.flags.owndata and not s.flags.writeable):
            object.__setattr__(self, "scaled", _frozen(s))

    @cached_property
    def matrix(self) -> np.ndarray:
        return _frozen(_rescaled(self.scaled, self.exponent))


@dataclass(frozen=True)
class LagCovariance(_Scaled):
    lag: int
    scaled: np.ndarray
    exponent: int


@dataclass(frozen=True)
class AugmentedCov(_Scaled):
    """Side-by-side lag autocovariances C(lag_lo) ... C(lag_hi)."""

    lag_lo: int
    lag_hi: int
    scaled: np.ndarray
    exponent: int
    N: int = 0

    @property
    def K(self) -> int:
        return self.scaled.shape[0]


def _lag_products(z: np.ndarray, lags) -> np.ndarray:
    """C(lag) for each lag of the normalized panel z, side by side in one
    read-only K x mK array: each GEMM writes its block, then one division
    by N - lag (a division per strided block would go through numpy's
    64 KB iteration buffers). The bits are z[:, lag:] @ z[:, :N - lag].T
    / (N - lag), with no temporary."""
    k, n = z.shape
    out = np.empty((k, len(lags) * k))
    for j, lag in enumerate(lags):
        np.matmul(z[:, lag:], z[:, :n - lag].T, out=out[:, j * k:(j + 1) * k])
    blocks = out.reshape(k, len(lags), k)
    blocks /= (n - np.asarray(lags, float))[:, None]
    out.setflags(write=False)
    return out


def sample_autocov(ts: TimeSeries, lag: int) -> LagCovariance:
    """Sample autocovariance at the given lag (0 <= lag <= N-2)."""
    n = ts.N
    if not 0 <= lag <= n - 2:
        raise ValueError(f"lag must be in [0, {n - 2}] for N={n}, got {lag}")
    z, e = ts._normalized
    return LagCovariance(lag=lag, scaled=_lag_products(z, [lag]), exponent=2 * e)


def _lag_range(ts: TimeSeries, lag_lo: int, lag_hi: int) -> range:
    """lag_lo..lag_hi, checked to satisfy 1 <= lag_lo <= lag_hi <= N-2."""
    n = ts.N
    if not 1 <= lag_lo <= lag_hi:
        raise ValueError(f"need 1 <= lag_lo <= lag_hi, got {lag_lo}..{lag_hi}")
    if lag_hi > n - 2:
        raise ValueError(f"lag_hi={lag_hi} too large for N={n} (max {n - 2})")
    return range(lag_lo, lag_hi + 1)


def build_augmented(ts: TimeSeries, lag_lo: int = 1, lag_hi: int = 5) -> AugmentedCov:
    """Stack sample autocovariances for lags lag_lo..lag_hi horizontally,
    each built in its block of the one array the result holds."""
    lags = _lag_range(ts, lag_lo, lag_hi)
    z, e = ts._normalized
    return AugmentedCov(lag_lo=lag_lo, lag_hi=lag_hi, scaled=_lag_products(z, lags),
                        exponent=2 * e, N=ts.N)
