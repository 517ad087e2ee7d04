"""AR fitting, error metrics, and the rolling forecast loop."""

import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.signal import lfilter

from qrfactors.factor_rrqr import FactorModelFit
from qrfactors.forecast_eval import (ArModel, _insample_forecast_error,
                                     _reconstruction_errors,
                                     _yule_walker_rows, fit_method,
                                     forecast_error, forecast_one_step, rmse,
                                     rmse_conventional, rolling_eval,
                                     yule_walker)
from qrfactors.simgen import SimConfig, gen_sim1, gen_sim2, monte_carlo
from qrfactors.tsdata import TimeSeries, load_csv

import oracles
from oracles import brute_series_autocov, old_insample_fe, old_rolling_fe

GOLDEN_PANEL = Path(__file__).resolve().parent / "golden" / "inputs" / "panel.csv"


# ------------------------------------------------------------------
# Yule-Walker


def test_yule_walker_recovers_ar1():
    rng = np.random.default_rng(201)
    x = np.empty(20_000)
    x[0] = 0.0
    for t in range(1, x.size):
        x[t] = 0.9 * x[t - 1] + rng.standard_normal()
    model = yule_walker(x, order=1)
    assert model.order == 1
    assert abs(model.coeffs[0] - 0.9) < 0.05
    # innovation variance of the generating recursion
    assert abs(model.noise_var - 1.0) < 0.1


def test_yule_walker_white_noise_coeffs_are_small():
    rng = np.random.default_rng(202)
    model = yule_walker(rng.standard_normal(20_000), order=3)
    assert np.abs(model.coeffs).max() < 0.05


def test_yule_walker_solves_the_autocovariance_system():
    # same equations assembled by hand from the scalar-loop oracle
    rng = np.random.default_rng(203)
    x = np.cumsum(rng.standard_normal(200)) * 0.1 + rng.standard_normal(200)
    order = 3
    cov = np.array([brute_series_autocov(x, l) for l in range(order + 1)])
    toep = np.array([[cov[abs(i - j)] for j in range(order)]
                     for i in range(order)])
    want = np.linalg.solve(toep, cov[1:])
    model = yule_walker(x, order)
    assert_allclose(model.coeffs, want, rtol=1e-8)
    assert model.noise_var >= 0.0


def test_yule_walker_input_validation():
    rng = np.random.default_rng(204)
    with pytest.raises(ValueError):
        yule_walker(rng.standard_normal(10), order=0)
    with pytest.raises(ValueError):
        yule_walker(rng.standard_normal(10), order=6)   # > n // 2


def _assert_rows_match_levinson(paths, order, rtol):
    # row for row, each row's error measured against that row's norm
    coeffs, noise_var = _yule_walker_rows(paths, order)
    assert coeffs.shape == (paths.shape[0], order)
    for row, got, got_var in zip(paths, coeffs, noise_var):
        want = oracles.yule_walker(row, order)
        assert (np.linalg.norm(got - want.coeffs)
                <= rtol * np.linalg.norm(want.coeffs))
        assert abs(got_var - want.noise_var) <= rtol * want.noise_var


@pytest.mark.parametrize("panel,lag_hi", [
    ("paper-cell", 5), ("rolling", 2), ("montecarlo", 2), ("golden", 2)])
@pytest.mark.parametrize("method", ["rrqr", "evd", "pca"])
def test_yule_walker_rows_match_the_levinson_route(panel, lag_hi, method):
    # the factor paths every forecast fits: the three benchmark panel
    # shapes and the golden input panel, at the CLI's AR orders
    ts = {
        "paper-cell": lambda: gen_sim1(k=180, n=500, seed=214).y,
        "rolling": lambda: gen_sim1(k=50, n=500, seed=215).y,
        "montecarlo": lambda: gen_sim2(SimConfig(
            scenario="sim2", k=100, n=200, seed=216, noise_kind="hurst")).y,
        "golden": lambda: load_csv(GOLDEN_PANEL),
    }[panel]()
    fit = fit_method(method, ts, 1, lag_hi)
    for order in (3, 10):
        _assert_rows_match_levinson(fit.factors, order, 1e-12)


@pytest.mark.parametrize("coeff", [0.99, 0.999])
def test_yule_walker_rows_match_the_levinson_route_near_a_unit_root(coeff):
    # near-singular Toeplitz systems, one path per row length
    rng = np.random.default_rng(217)
    for n in rng.integers(40, 601, size=30):
        path = lfilter([1.0], [1.0, -coeff], rng.standard_normal(n + 500))[500:]
        _assert_rows_match_levinson(path[None, :], 10, 1e-10)


def test_yule_walker_rows_validate_like_yule_walker():
    rng = np.random.default_rng(218)
    good = rng.standard_normal((3, 40))
    constant = np.vstack([good, np.full(40, 2.5), good])
    nan = np.vstack([good[:2], good[2] * np.where(np.arange(40) == 7, np.nan, 1)])
    cases = [(constant, 3, constant[3]), (nan, 3, nan[2]),
             (good, 0, good[0]), (good, 21, good[0])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for paths, order, bad_row in cases:
            with pytest.raises(ValueError) as want:
                oracles.yule_walker(bad_row, order)
            with pytest.raises(ValueError) as got:
                _yule_walker_rows(paths, order)
            assert str(got.value) == str(want.value)
            with pytest.raises(ValueError) as public:
                yule_walker(bad_row, order)
            assert str(public.value) == str(want.value)
        coeffs, noise_var = _yule_walker_rows(np.empty((0, 40)), 10)
    assert coeffs.shape == (0, 10)
    assert noise_var.shape == (0,)


def test_ar_model_validation():
    with pytest.raises(ValueError):
        ArModel(order=2, coeffs=(0.5,), noise_var=1.0)
    with pytest.raises(ValueError):
        ArModel(order=1, coeffs=(0.5,), noise_var=-1.0)


# ------------------------------------------------------------------
# one-step forecasting


def _rank_one_fit(k=4):
    q = np.zeros((k, 1))
    q[0, 0] = 1.0
    return FactorModelFit(method="RRQR", p_hat=1, q_hat=q,
                          factors=np.zeros((1, 10)))


def test_forecast_one_step_hand_arithmetic():
    fit = _rank_one_fit()
    ar = [ArModel(order=2, coeffs=(0.5, 0.25), noise_var=1.0)]
    hist = np.array([[1.0, 2.0, 3.0, 4.0]])
    # newest first: 0.5 * 4 + 0.25 * 3 = 2.75, mapped through q
    got = forecast_one_step(fit, ar, hist)
    assert_allclose(got, [2.75, 0.0, 0.0, 0.0], atol=1e-14)
    # two factors of different orders, each advanced by its own model:
    # 0.5 * 4 = 2 and 0.1 * 40 + 0.2 * 30 + 0.3 * 20 = 16
    q = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    fit = FactorModelFit(method="RRQR", p_hat=2, q_hat=q,
                         factors=np.zeros((2, 10)))
    ar = [ArModel(order=1, coeffs=(0.5,), noise_var=1.0),
          ArModel(order=3, coeffs=(0.1, 0.2, 0.3), noise_var=1.0)]
    hist = np.array([[1.0, 2.0, 3.0, 4.0], [10.0, 20.0, 30.0, 40.0]])
    assert_allclose(forecast_one_step(fit, ar, hist), [2.0, 16.0, 18.0],
                    rtol=1e-14)


def test_forecast_rank_zero_warns_and_returns_zero():
    q = np.zeros((3, 0))
    fit = FactorModelFit(method="RRQR", p_hat=0, q_hat=q,
                         factors=np.zeros((0, 5)))
    with pytest.warns(UserWarning):
        got = forecast_one_step(fit, [], np.zeros((0, 5)))
    assert_allclose(got, 0.0, atol=1e-16)


def test_forecast_one_step_validation():
    fit = _rank_one_fit()
    ar = [ArModel(order=3, coeffs=(0.1, 0.1, 0.1), noise_var=1.0)]
    with pytest.raises(ValueError, match="history"):
        forecast_one_step(fit, ar, np.array([[1.0, 2.0]]))   # too short
    with pytest.raises(ValueError, match="rows"):
        forecast_one_step(fit, ar, np.zeros((2, 5)))
    with pytest.raises(ValueError, match="AR models"):
        forecast_one_step(fit, [], np.zeros((1, 5)))


# ------------------------------------------------------------------
# error metrics


def _unit_fit(recon_value):
    return FactorModelFit(method="RRQR", p_hat=1, q_hat=np.array([[1.0]]),
                          factors=np.array([[recon_value]]))


def test_rmse_single_cell_arithmetic():
    # reconstruction 3, truth 1: sqrt(|3-1| / 1) = sqrt(2)
    fit = _unit_fit(3.0)
    got = rmse(fit, np.array([[1.0]]), np.array([[1.0]]))
    assert_allclose(got, np.sqrt(2.0), rtol=1e-14)


def test_rmse_conventional_single_cell():
    fit = _unit_fit(3.0)
    got = rmse_conventional(fit, np.array([[1.0]]), np.array([[1.0]]))
    assert_allclose(got, 2.0, rtol=1e-14)


def test_rmse_zero_on_perfect_fit():
    fit = _unit_fit(5.0)
    truth_h = np.array([[1.0]])
    truth_x = np.array([[5.0]])
    assert rmse(fit, truth_h, truth_x) == 0.0
    assert rmse_conventional(fit, truth_h, truth_x) == 0.0


def test_reconstruction_errors_keep_the_two_metrics_bits():
    # one residual for both metrics, bit for bit the separate formulas
    data = gen_sim2(SimConfig(scenario="sim2", k=16, n=120, seed=219,
                              noise_kind="hurst"))
    for method in ("rrqr", "evd", "pca"):
        fit = fit_method(method, data.y, 1, 2)
        assert (_reconstruction_errors(fit, data.h, data.x)
                == oracles.old_rmse(fit, data.h, data.x))


def test_rmse_shape_mismatch():
    fit = _unit_fit(1.0)
    with pytest.raises(ValueError, match="shape"):
        rmse(fit, np.eye(2), np.ones((2, 5)))


def test_forecast_error_hand_arithmetic():
    # one time step, K=4, residual (1,1,1,1): 4^{-1/2} * 2 = 1
    preds = np.zeros((4, 1))
    actuals = np.ones((4, 1))
    assert_allclose(forecast_error(preds, actuals), 1.0, rtol=1e-14)


def test_forecast_error_averages_over_time():
    preds = np.zeros((1, 4))
    actuals = np.array([[1.0, 2.0, 3.0, 4.0]])
    assert_allclose(forecast_error(preds, actuals), 2.5, rtol=1e-14)


def test_forecast_error_zero_iff_equal():
    rng = np.random.default_rng(205)
    x = rng.standard_normal((3, 7))
    assert forecast_error(x, x) == 0.0
    assert forecast_error(x, x + 1e-3) > 0.0


def test_forecast_error_row_permutation_invariant():
    rng = np.random.default_rng(206)
    preds, actuals = rng.standard_normal((2, 5, 8))
    perm = rng.permutation(5)
    assert_allclose(forecast_error(preds[perm], actuals[perm]),
                    forecast_error(preds, actuals), rtol=1e-13)


def test_forecast_error_rejects_empty_and_mismatched():
    with pytest.raises(ValueError):
        forecast_error(np.zeros((2, 0)), np.zeros((2, 0)))
    with pytest.raises(ValueError):
        forecast_error(np.zeros((2, 3)), np.zeros((2, 4)))


# ------------------------------------------------------------------
# rolling evaluation


@pytest.mark.parametrize("refit_stride,eval_len,ar_order",
                         [(7, 30, 3), (1, 12, 2), (150, 150, 5)])
def test_rolling_eval_matches_per_target_loop(refit_stride, eval_len,
                                              ar_order):
    # several refits with a ragged last block, one refit per target, and
    # one refit for the whole span (stride >= eval_len), against
    # forecasting one target at a time from a fresh projection of the
    # window up to it
    data = gen_sim1(k=6, n=450, seed=207)
    window = 300
    report = rolling_eval(data.y, "rrqr", window=window,
                          refit_stride=refit_stride, ar_order=ar_order,
                          eval_len=eval_len)
    assert len(report.per_window) == -(-eval_len // refit_stride)
    want = old_rolling_fe(data.y, "rrqr", window, refit_stride, ar_order,
                          eval_len)
    assert_allclose(report.fe, want, rtol=1e-12)


@pytest.mark.parametrize("method", ["rrqr", "evd"])
@pytest.mark.parametrize("scenario,p", [("sim1", 1), ("sim2", 2)])
def test_insample_forecast_error_matches_per_target_loop(scenario, p, method):
    if scenario == "sim1":
        data = gen_sim1(k=12, n=120, seed=213)
    else:
        data = gen_sim2(SimConfig(scenario="sim2", k=16, n=120, seed=213,
                                  noise_kind="hurst"))
    fit = fit_method(method, data.y, 1, 5)
    assert fit.p_hat == p
    assert_allclose(_insample_forecast_error(fit, data.y, 10),
                    old_insample_fe(fit, data.y, 10), rtol=1e-12)


def test_rolling_eval_methods_and_records():
    data = gen_sim1(k=8, n=700, seed=208)
    report = rolling_eval(data.y, "evd", window=400, refit_stride=100,
                          ar_order=4, eval_len=300)
    assert report.method == "evd"
    assert len(report.per_window) == 3
    starts = [w.start for w in report.per_window]
    assert starts == sorted(starts)
    assert report.p_hat_mean == 1.0
    assert report.fe > 0.0
    assert report.rmse_mean > 0.0


def test_rolling_eval_rejects_short_series():
    data = gen_sim1(k=5, n=120, seed=209)
    with pytest.raises(ValueError):
        rolling_eval(data.y, "rrqr", window=100, eval_len=50)


def test_rolling_eval_rejects_unknown_method():
    data = gen_sim1(k=5, n=900, seed=210)
    with pytest.raises(ValueError, match="method"):
        rolling_eval(data.y, "arima", window=500, eval_len=400)


def test_unknown_method_fails_alike_in_rolling_eval_and_monte_carlo():
    data = gen_sim1(k=5, n=900, seed=210)
    with pytest.raises(ValueError) as info:
        rolling_eval(data.y, "arima", window=500, eval_len=400)
    assert "unknown method 'arima'" in str(info.value)
    with pytest.raises(ValueError) as mc_info:
        monte_carlo(SimConfig(scenario="sim1", k=5, n=120, seed=211), 1,
                    methods=("rrqr", "arima"))
    assert str(mc_info.value) == str(info.value)


def test_method_names_match_in_any_case():
    ts = gen_sim1(k=5, n=900, seed=210).y
    upper, lower = fit_method("RRQR", ts), fit_method("rrqr", ts)
    assert upper.p_hat == lower.p_hat
    np.testing.assert_array_equal(upper.q_hat, lower.q_hat)
    np.testing.assert_array_equal(upper.factors, lower.factors)
    assert rolling_eval(ts, "Evd", window=500, eval_len=400).method == "evd"


@pytest.mark.parametrize("method", ["rrqr", "evd", "pca"])
def test_single_series_needs_a_pinned_rank(method):
    ts = TimeSeries(np.random.default_rng(212).standard_normal((1, 200)))
    with pytest.raises(ValueError, match=r"p_override \(qrfactors fit --p"):
        fit_method(method, ts)
    with pytest.raises(ValueError, match=r"p_override \(qrfactors fit --p"):
        fit_method(method, ts, p_cap=1)
    fit = fit_method(method, ts, p_override=1)
    assert fit.p_hat == 1
    assert fit.q_hat.shape == (1, 1)


@pytest.mark.parametrize("p_override", [None, 1])
@pytest.mark.parametrize("method", ["rrqr", "evd", "pca"])
def test_constant_panel_is_rejected(method, p_override):
    # every covariance is zero, so any loading returned would be arbitrary
    ts = TimeSeries(np.full((4, 200), 0.1))
    with pytest.raises(ValueError, match="at least one series varies"):
        fit_method(method, ts, p_override=p_override)


def test_rolling_eval_constant_series_errors():
    ts = TimeSeries(np.ones((4, 900)))
    with pytest.raises(ValueError):
        rolling_eval(ts, "rrqr", window=500, eval_len=300)


@pytest.mark.parametrize("kwargs,message", [
    ({"window": 2}, "window must be at least 3, got 2"),
    ({"refit_stride": 0}, "refit_stride and eval_len must be positive"),
], ids=["window < 3", "refit_stride < 1"])
def test_rolling_eval_messages(kwargs, message):
    data = gen_sim1(k=5, n=900, seed=211)
    with pytest.raises(ValueError) as err:
        rolling_eval(data.y, "evd", **{"window": 500, **kwargs})
    assert str(err.value) == message
