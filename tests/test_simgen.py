"""Scenario generators, the subspace metric, and the trial harness."""

import os

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from qrfactors import simgen
from qrfactors.forecast_eval import fit_method
from qrfactors.simgen import (_BLAS_THREAD_VARS, SimConfig,
                              _single_thread_blas_pool, gen_sim1, gen_sim2,
                              hurst_cov, monte_carlo, subspace_error)

from oracles import ar1_variance, brute_series_autocov, ma_gap_autocov


# ------------------------------------------------------------------
# scenario 1: single AR(1) factor, cosine loadings


def test_sim1_loading_column():
    data = gen_sim1(k=4, n=50, seed=1)
    assert_allclose(data.h[:, 0], [0.0, -2.0, 0.0, 2.0], atol=1e-12)
    assert data.p == 1


def test_sim1_factor_variance_matches_theory():
    data = gen_sim1(k=3, n=100_000, seed=2)
    want = ar1_variance(0.9, 4.0)   # innovations have variance 4
    got = data.x[0].var()
    assert abs(got - want) / want < 0.05


def test_sim1_factor_is_serially_correlated():
    data = gen_sim1(k=3, n=100_000, seed=3)
    lag1 = brute_series_autocov(data.x[0], 1)
    lag0 = brute_series_autocov(data.x[0], 0)
    assert abs(lag1 / lag0 - 0.9) < 0.02


def test_sim1_measurement_noise_variance():
    data = gen_sim1(k=6, n=100_000, seed=4)
    resid = data.y.values - data.h @ data.x
    assert_allclose(resid.var(axis=1), 4.0, rtol=0.05)


def test_sim1_half_support_zeroes_the_tail():
    full = gen_sim1(k=8, n=50, seed=5)
    half = gen_sim1(k=8, n=50, seed=5, half_support=True)
    assert_array_equal(half.h[4:, 0], 0.0)
    assert_array_equal(half.h[:4, 0], full.h[:4, 0])


def test_sim1_determinism():
    one = gen_sim1(k=5, n=200, seed=6)
    two = gen_sim1(k=5, n=200, seed=6)
    assert_array_equal(one.y.values, two.y.values)
    assert not np.array_equal(one.y.values,
                              gen_sim1(k=5, n=200, seed=7).y.values)


# ------------------------------------------------------------------
# scenario 2: two lagged-MA factors


def _sim2(seed, k=8, n=1000, **kw):
    return gen_sim2(SimConfig(scenario="sim2", k=k, n=n, seed=seed, **kw))


def test_sim2_shapes_and_rank():
    data = _sim2(11)
    assert data.p == 2
    assert data.h.shape == (8, 2)
    assert data.x.shape == (2, 1000)
    assert data.y.values.shape == (8, 1000)


def test_sim2_second_loading_lives_on_the_front_half():
    data = _sim2(12, k=10)
    assert_array_equal(data.h[5:, 1], 0.0)
    assert (data.h[:5, 1] != 0.0).all()
    assert (np.abs(data.h) <= 4.0).all()


def test_sim2_factor_autocovariances_match_ma_theory():
    data = _sim2(13, k=4, n=100_000)
    x1, x2 = data.x
    # first factor: one-lag moving average with coefficient 0.5
    assert abs(brute_series_autocov(x1, 0) - ma_gap_autocov(0.5, 1, 0)) < 0.05
    assert abs(brute_series_autocov(x1, 1) - ma_gap_autocov(0.5, 1, 1)) < 0.05
    # second factor: the correlation sits two lags out instead
    assert abs(brute_series_autocov(x2, 0) - ma_gap_autocov(0.5, 2, 0)) < 0.05
    assert abs(brute_series_autocov(x2, 1)) < 0.05
    assert abs(brute_series_autocov(x2, 2) - ma_gap_autocov(0.5, 2, 2)) < 0.05


def test_sim2_loading_strengths():
    # squared norms per supported series hover around E[U(-4,4)^2] = 16/3
    per_series_1, per_series_2 = [], []
    for seed in range(40):
        data = _sim2(100 + seed, k=20)
        per_series_1.append((data.h[:, 0] ** 2).sum() / 20)
        per_series_2.append((data.h[:, 1] ** 2).sum() / 10)
    want = 16.0 / 3.0
    for values in (per_series_1, per_series_2):
        mean = np.mean(values)
        assert want / 3 < mean < want * 3


def test_sim2_iid_noise_is_uncorrelated_across_series():
    data = _sim2(14, k=6, n=100_000)
    noise = data.y.values - data.h @ data.x
    cov = noise @ noise.T / noise.shape[1]
    off = cov - np.diag(np.diag(cov))
    assert np.abs(off).max() < 0.05
    assert_allclose(np.diag(cov), 1.0, rtol=0.05)


def test_sim2_hurst_noise_is_correlated_across_series():
    data = _sim2(15, k=10, n=20_000, noise_kind="hurst")
    noise = data.y.values - data.h @ data.x
    cov = noise @ noise.T / noise.shape[1]
    corr = cov[-1, -2] / np.sqrt(cov[-1, -1] * cov[-2, -2])
    assert corr > 0.5   # adjacent fractional-motion sites move together


def test_sim2_determinism():
    assert_array_equal(_sim2(16).y.values, _sim2(16).y.values)


# ------------------------------------------------------------------
# fractional-motion covariance


def test_hurst_cov_half_exponent_is_min():
    k = 12
    got = hurst_cov(k, 0.5)
    want = np.minimum.outer(np.arange(1, k + 1), np.arange(1, k + 1))
    assert_array_equal(got, want.astype(float))


def test_hurst_cov_unit_first_site():
    for w in (0.3, 0.6, 0.9):
        assert hurst_cov(5, w)[0, 0] == 1.0


def test_hurst_cov_symmetric_psd():
    cov = hurst_cov(50, 0.6)
    assert_array_equal(cov, cov.T)
    lam = np.linalg.eigvalsh(cov)
    assert lam.min() >= -1e-8 * lam.max()


@pytest.mark.parametrize("w", [0.0, 1.0, -0.2, 1.5])
def test_hurst_cov_rejects_bad_exponent(w):
    with pytest.raises(ValueError):
        hurst_cov(5, w)


# ------------------------------------------------------------------
# configuration validation


@pytest.mark.parametrize("kw", [
    {"scenario": "sim3"},
    {"scenario": "sim2", "k": 7},          # odd
    {"scenario": "sim2", "k": 2},
    {"n": 5},
    {"lag_lo": 0},
    {"lag_lo": 3, "lag_hi": 2},
    {"k": 1},
    {"noise_kind": "pink"},
])
def test_sim_config_rejects(kw):
    base = dict(scenario="sim1", k=8, n=100, seed=0)
    base.update(kw)
    with pytest.raises(ValueError):
        SimConfig(**base)


@pytest.mark.parametrize("name", ["alpha1", "alpha2", "hurst_w",
                                  "noise_scale"])
def test_sim_config_takes_no_scenario_constant(name):
    # scenario 2's MA coefficient, Hurst exponent and noise scale are the
    # paper's constants, not settings a config (or its manifest) carries
    with pytest.raises(TypeError):
        SimConfig(scenario="sim2", k=8, n=100, seed=0, **{name: 0.5})


@pytest.mark.parametrize("kw, message", [
    ({"scenario": "sim1", "noise_kind": "hurst"},
     "scenario sim1 draws iid noise only: drop --noise hurst, or use "
     "--scenario sim2"),
    ({"scenario": "sim2", "half_support": True},
     "scenario sim2 has no half-support option: drop --half-support, or "
     "use --scenario sim1"),
], ids=["sim1 hurst", "sim2 half support"])
def test_sim_config_rejects_a_setting_its_scenario_ignores(kw, message):
    # gen_sim1 draws iid noise whatever noise_kind says, and gen_sim2
    # ignores half_support, so a report would record a setting its data
    # do not have
    with pytest.raises(ValueError) as err:
        SimConfig(k=8, n=100, seed=0, **kw)
    assert str(err.value) == message


# ------------------------------------------------------------------
# subspace distance


def test_subspace_error_zero_for_same_span():
    rng = np.random.default_rng(21)
    q = np.linalg.qr(rng.standard_normal((6, 2)))[0][:, :2]
    assert subspace_error(q, q) == 0.0
    # sign flips leave the span alone
    assert subspace_error(-q[:, :1], q[:, :1], "aligned-direct") == 0.0
    assert subspace_error(-q, q) <= 1e-15


def test_subspace_error_disjoint_spans():
    p = 3
    eye = np.eye(2 * p + 1)
    q1, q2 = eye[:, :p], eye[:, p:2 * p]
    assert_allclose(subspace_error(q1, q2, norm="fro"), np.sqrt(2 * p),
                    rtol=1e-12)
    assert_allclose(subspace_error(q1, q2, norm="2"), 1.0, rtol=1e-12)


def test_subspace_error_accepts_flat_vectors():
    v = np.zeros(5)
    v[0] = 1.0
    w = np.zeros(5)
    w[1] = 1.0
    assert_allclose(subspace_error(v, w, "aligned-direct"), np.sqrt(2.0),
                    rtol=1e-12)


def test_subspace_error_validation():
    q = np.eye(4)[:, :2]
    with pytest.raises(ValueError, match="single column"):
        subspace_error(q, q, "aligned-direct")
    with pytest.raises(ValueError, match="row counts"):
        subspace_error(np.eye(3)[:, :1], np.eye(4)[:, :1])
    with pytest.raises(ValueError, match="mode"):
        subspace_error(q, q, mode="chordal")
    with pytest.raises(ValueError, match="norm"):
        subspace_error(q, q, norm="1")


# ------------------------------------------------------------------
# the trial harness


def test_monte_carlo_single_trial_has_zero_spread():
    cfg = SimConfig(scenario="sim1", k=8, n=120, seed=31)
    rep = monte_carlo(cfg, trials=1)
    agg = rep["per_method"]["rrqr"]
    assert agg["trials_ok"] == 1
    assert agg["error_std"] == 0.0


def test_monte_carlo_report_layout():
    cfg = SimConfig(scenario="sim1", k=10, n=150, seed=32)
    rep = monte_carlo(cfg, trials=3, methods=("rrqr", "evd"),
                      outputs=("errors", "ratios"))
    assert rep["trials"] == 3
    assert rep["scenario"] == "sim1"
    assert rep["methods"] == ["rrqr", "evd"]
    for m in ("rrqr", "evd"):
        agg = rep["per_method"][m]
        assert agg["p_hat_counts"] == {1: 3}
        assert agg["error_mean"] > 0.0
        assert len(agg["ratio_mean"]) == len(agg["ratio_std"])
    assert rep["failures"] == []


def test_monte_carlo_worker_count_does_not_change_results():
    cfg = SimConfig(scenario="sim1", k=6, n=100, seed=33)
    serial = monte_carlo(cfg, trials=6, threads=1)
    pooled = monte_carlo(cfg, trials=6, threads=3)
    assert serial == pooled


def test_monte_carlo_workers_run_single_thread_blas(monkeypatch):
    # workers see 1 in every BLAS thread variable; the parent's own
    # settings, set or unset, come back unchanged
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    before = dict(os.environ)
    with _single_thread_blas_pool(2) as pool:
        seen = [pool.submit(os.getenv, var).result()
                for var in _BLAS_THREAD_VARS]
    assert seen == ["1"] * len(_BLAS_THREAD_VARS)
    assert dict(os.environ) == before


def test_monte_carlo_repeats_bitwise():
    cfg = SimConfig(scenario="sim2", k=8, n=200, seed=34)
    one = monte_carlo(cfg, trials=4, methods=("rrqr", "evd", "pca"),
                      outputs=("errors", "rmse"))
    two = monte_carlo(cfg, trials=4, methods=("rrqr", "evd", "pca"),
                      outputs=("errors", "rmse"))
    assert one == two


def test_monte_carlo_records_per_trial_failures(monkeypatch):
    # the fit of trial 1 of 3 raises: the failure is recorded with its
    # trial and message, and the trials around it still run
    calls = []

    def fails_once(*args, **kwargs):
        calls.append(args[0])
        if len(calls) == 2:
            raise RuntimeError("trial 1 fails")
        return fit_method(*args, **kwargs)

    monkeypatch.setattr(simgen, "fit_method", fails_once)
    cfg = SimConfig(scenario="sim1", k=8, n=40, seed=35)
    rep = monte_carlo(cfg, trials=3, methods=("rrqr",), outputs=("errors",))
    assert calls == ["rrqr"] * 3
    assert rep["failures"] == [
        {"trial": 1, "method": "rrqr", "message": "trial 1 fails"}]
    assert rep["per_method"]["rrqr"]["trials_ok"] == 2


def test_sim_config_takes_only_lags_every_fit_can():
    # the stacked covariance's rule, 1 <= lag_lo <= lag_hi <= n - 2, for
    # every method: lag_hi = 9 at n = 10 once ran trials whose rrqr and
    # evd fits all failed, and pca-only configs took it too
    for lag_lo, lag_hi, message in [
            (1, 9, "lag_hi=9 too large for N=10 (max 8)"),
            (0, 2, "need 1 <= lag_lo <= lag_hi, got 0..2"),
            (3, 2, "need 1 <= lag_lo <= lag_hi, got 3..2")]:
        with pytest.raises(ValueError) as err:
            SimConfig(scenario="sim2", k=4, n=10, seed=0, lag_lo=lag_lo,
                      lag_hi=lag_hi)
        assert str(err.value) == message
    cfg = SimConfig(scenario="sim2", k=4, n=10, seed=0, lag_hi=8)
    rep = monte_carlo(cfg, trials=2, methods=("rrqr", "evd", "pca"))
    assert rep["failures"] == []


def test_monte_carlo_rejects_forecast_without_targets():
    # AR(10) forecasts are scored from sample 20 on: no target up to n=20
    for n in (12, 20):
        cfg = SimConfig(scenario="sim1", k=6, n=n, seed=37)
        with pytest.raises(ValueError, match="needs n > 20"):
            monte_carlo(cfg, trials=2, outputs=("errors", "forecast"))
        assert monte_carlo(cfg, trials=2)["per_method"]["rrqr"]["trials_ok"] == 2
    rep = monte_carlo(SimConfig(scenario="sim1", k=6, n=21, seed=37),
                      trials=2, outputs=("forecast",))
    assert rep["failures"] == []
    assert np.isfinite(rep["per_method"]["rrqr"]["fe_mean"])


@pytest.mark.parametrize("methods, ranks, message", [
    (("rrqr", "evd", "pca"), {"p_cap": 40},
     "p_cap must be in [1, 3], got 40 (--p-cap)"),
    (("pca",), {"p_override": 9},
     "p_override must be in [1, 4], got 9 (fit --p, sim --p-override)"),
    # the evd fit reads its cap under a pinned rank, for its ratio curve
    (("rrqr", "evd"), {"p_override": 2, "p_cap": 40},
     "p_cap must be in [1, 3], got 40 (--p-cap)"),
], ids=["cap", "pin", "evd cap under a pin"])
def test_monte_carlo_refuses_ranks_before_the_first_draw(monkeypatch, methods,
                                                         ranks, message):
    def no_draw(config):
        raise AssertionError("a trial drew data")
    monkeypatch.setattr(simgen, "_gen_dataset", no_draw)
    cfg = SimConfig(scenario="sim1", k=4, n=30, seed=0)
    with pytest.raises(ValueError) as err:
        monte_carlo(cfg, trials=2, methods=methods, **ranks)
    assert str(err.value) == message


def test_monte_carlo_accepts_a_cap_its_pinned_fits_ignore():
    # under p_override the rrqr and pca fits never read the cap
    cfg = SimConfig(scenario="sim1", k=4, n=30, seed=0)
    rep = monte_carlo(cfg, trials=2, methods=("rrqr", "pca"), p_override=2,
                      p_cap=40)
    assert rep["failures"] == []
    assert [agg["p_hat_counts"] for agg in rep["per_method"].values()] \
        == [{2: 2}, {2: 2}]


def test_monte_carlo_rejects_bad_arguments():
    cfg = SimConfig(scenario="sim1", k=6, n=100, seed=36)
    with pytest.raises(ValueError):
        monte_carlo(cfg, trials=0)
    with pytest.raises(ValueError):
        monte_carlo(cfg, trials=2, outputs=("errors", "volatility"))
    for methods in [("svd",), ("rrqr", "pcaa"), ()]:
        with pytest.raises(ValueError, match="unknown method"):
            monte_carlo(cfg, trials=1, methods=methods)


@pytest.mark.parametrize("call,message", [
    (lambda: gen_sim1(1, 100, 0), "need at least 2 series, got 1"),
    (lambda: gen_sim1(4, 9, 0), "need at least 10 samples, got 9"),
    (lambda: hurst_cov(0, 0.5), "need at least one site, got 0"),
    (lambda: gen_sim2(SimConfig(scenario="sim1", k=8, n=100, seed=0)),
     "config is for scenario 'sim1'"),
], ids=["sim1 k < 2", "sim1 n < 10", "hurst k < 1", "sim2 of a sim1 config"])
def test_bad_input_messages(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
