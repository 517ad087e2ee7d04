"""Lag autocovariances against the scalar-loop oracle."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from qrfactors.covariance import LagCovariance, build_augmented, sample_autocov
from qrfactors.factor_rrqr import fit_rrqr
from qrfactors.simgen import subspace_error
from qrfactors.tsdata import TimeSeries

from oracles import brute_autocov


def test_matches_brute_force_small_grid():
    # every (K, N, lag) cell with K <= 4, N <= 12
    rng = np.random.default_rng(42)
    for k in range(1, 5):
        for n in range(3, 13):
            ts = TimeSeries(rng.standard_normal((k, n)))
            for lag in range(0, n - 1):
                got = sample_autocov(ts, lag).matrix
                assert_allclose(got, brute_autocov(ts.values, lag),
                                atol=1e-12)


def test_hand_worked_two_by_two():
    # K=1, N=4, lag 1: pairs (x2-m)(x1-m)+(x3-m)(x2-m)+(x4-m)(x3-m), /3
    ts = TimeSeries([[1.0, 3.0, 5.0, 7.0]])
    m = 4.0
    expect = ((3 - m) * (1 - m) + (5 - m) * (3 - m) + (7 - m) * (5 - m)) / 3.0
    assert_allclose(sample_autocov(ts, 1).matrix, [[expect]], atol=1e-14)


def test_lag_zero_is_symmetric_psd():
    rng = np.random.default_rng(5)
    ts = TimeSeries(rng.standard_normal((5, 40)))
    c0 = sample_autocov(ts, 0).matrix
    assert_allclose(c0, c0.T, atol=1e-14)
    assert np.linalg.eigvalsh(c0).min() > -1e-12


def test_lag_bounds_rejected():
    ts = TimeSeries(np.ones((2, 6)) + np.arange(6))
    with pytest.raises(ValueError, match="lag"):
        sample_autocov(ts, -1)
    with pytest.raises(ValueError, match="lag"):
        sample_autocov(ts, 5)   # N-1 leaves a single product


def test_matrix_is_frozen():
    ts = TimeSeries(np.random.default_rng(1).standard_normal((3, 9)))
    cov = sample_autocov(ts, 1)
    with pytest.raises(ValueError):
        cov.matrix[0, 0] = 0.0


def test_augmented_stacks_blocks_in_lag_order():
    rng = np.random.default_rng(6)
    ts = TimeSeries(rng.standard_normal((3, 30)))
    aug = build_augmented(ts, lag_lo=1, lag_hi=4)
    assert aug.matrix.shape == (3, 12)
    assert (aug.K, aug.N) == (3, 30)
    for j, lag in enumerate(range(1, 5)):
        assert_array_equal(aug.matrix[:, 3 * j:3 * (j + 1)],
                           sample_autocov(ts, lag).matrix)


def test_augmented_single_lag():
    ts = TimeSeries(np.random.default_rng(2).standard_normal((4, 20)))
    aug = build_augmented(ts, lag_lo=2, lag_hi=2)
    assert aug.matrix.shape == (4, 4)
    assert_array_equal(aug.matrix[:, :4], sample_autocov(ts, 2).matrix)


@pytest.mark.parametrize("shape,lag_hi", [((20, 200), 5), ((180, 500), 5),
                                          ((30, 12), 2), ((1, 50), 3)])
def test_blocks_are_the_plain_quotients_bit_for_bit(shape, lag_hi):
    # each block is written by the GEMM in place and divided there; its
    # bits are those of the product and quotient as separate arrays
    ts = TimeSeries(np.random.default_rng(7).standard_normal(shape))
    z, e = ts._normalized
    n = ts.N
    aug = build_augmented(ts, 1, lag_hi)
    want = [z[:, lag:] @ z[:, :n - lag].T / (n - lag)
            for lag in range(1, lag_hi + 1)]
    assert aug.exponent == 2 * e
    assert_array_equal(aug.scaled.view(np.uint64),
                       np.hstack(want).view(np.uint64))
    for lag in (0, 1, lag_hi):
        got = sample_autocov(ts, lag).scaled
        assert_array_equal(got.view(np.uint64),
                           (z[:, lag:] @ z[:, :n - lag].T / (n - lag)).view(np.uint64))


def test_built_covariances_are_held_without_a_copy():
    # built read-only, so held as they are; an array handed in is still
    # copied, so changing it later moves nothing
    ts = TimeSeries(np.random.default_rng(8).standard_normal((4, 30)))
    for cov in (build_augmented(ts, 1, 3), sample_autocov(ts, 2)):
        assert cov.scaled.flags.owndata and not cov.scaled.flags.writeable
        assert cov.scaled.flags.c_contiguous
        assert not cov.matrix.flags.writeable
    mine = np.ones((2, 2))
    cov = LagCovariance(lag=1, scaled=mine, exponent=0)
    mine[0, 0] = 5.0
    assert cov.scaled[0, 0] == 1.0 and not cov.scaled.flags.writeable


@pytest.mark.parametrize("lo,hi", [(0, 2), (3, 1), (1, 30)])
def test_augmented_lag_range_rejected(lo, hi):
    ts = TimeSeries(np.random.default_rng(3).standard_normal((2, 12)))
    with pytest.raises(ValueError):
        build_augmented(ts, lag_lo=lo, lag_hi=hi)


def test_augmented_saturates_where_covariances_overflow():
    # at 1e160 every lag covariance is near 1e320: the stacked matrix
    # saturates to inf with the unit-scale signs, never NaN, and the fit,
    # which reads the normalized panel, is the unit-scale one
    values = np.random.default_rng(4).standard_normal((3, 40))
    ts = TimeSeries(1e160 * values)
    base = build_augmented(TimeSeries(values), lag_lo=1, lag_hi=2).matrix
    aug = build_augmented(ts, lag_lo=1, lag_hi=2).matrix
    assert np.isinf(aug).all()
    assert_array_equal(np.sign(aug), np.sign(base))
    fit, unit = fit_rrqr(ts, 1, 2), fit_rrqr(TimeSeries(values), 1, 2)
    assert fit.p_hat == unit.p_hat
    assert subspace_error(fit.q_hat, unit.q_hat) <= 1e-10
    # within the float range a power of two maps back exactly
    shifted = build_augmented(TimeSeries(np.ldexp(values, 300)), 1, 2).matrix
    assert_array_equal(shifted, np.ldexp(base, 600))
