"""Rank scanning and the pivoted-QR factor fit."""

import math
from contextlib import contextmanager
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from qrfactors import covariance, factor_rrqr, rrqr
from qrfactors.covariance import build_augmented
from qrfactors.baselines import fit_evd, fit_pca
from qrfactors.factor_rrqr import FactorModelFit, fit_rrqr, scan_model_order
from qrfactors.forecast_eval import fit_method, rolling_eval
from qrfactors.rrqr import (RrqrIterationError, hybrid1, hybrid3,
                            singular_values)
from qrfactors.simgen import (SimConfig, gen_sim1, gen_sim2, monte_carlo,
                              subspace_error)
from qrfactors.tsdata import TimeSeries, demean

from oracles import (OLD_RANK_RULES, col_norms, exact_rank_three,
                     lag_product_rounding, matrix_with_spectrum, old_scan,
                     permuted_panels, random_orthonormal, sign_flip_panels)


def test_diag_18_5_08_worked_example():
    # ratio floor and both ratios recomputed from first principles
    scan = scan_model_order(np.diag([18.0, 5.0, 0.8]), p_cap=2, n=10_000)
    eps = 18.0 / math.sqrt(3 * 10_000)
    assert scan.epsilon == eps
    assert scan.candidates[0].ratio == (18.0 + eps) / (5.0 + eps)
    assert scan.candidates[1].ratio == (5.0 + eps) / (0.8 + eps)
    assert scan.p_hat == 2
    # frozen values, guarding the arithmetic above against edits
    assert_allclose(scan.epsilon, 0.10392304845413264, rtol=1e-15)
    assert_allclose(scan.ratios(), [3.547060344872836, 5.646413217566183],
                    rtol=1e-15)


def test_scan_candidate_bookkeeping():
    scan = scan_model_order(np.diag([9.0, 4.0, 1.0, 0.1]), p_cap=3, n=500)
    assert [c.index for c in scan.candidates] == [1, 2, 3]
    assert scan.p_cap == 3
    assert scan.epsilon > 0
    for c in scan.candidates:
        assert c.gamma >= c.gamma_next >= 0.0
    assert scan.ratios().shape == (3,)


def test_scan_exact_rank_one():
    rng = np.random.default_rng(71)
    m = matrix_with_spectrum(rng, 6, 12, [4.0])
    scan = scan_model_order(m, p_cap=4, n=1000)
    assert scan.p_hat == 1
    # the rank-1 ratio is sqrt(k n) sized, dwarfing every later one
    assert scan.candidates[0].ratio > 50.0


_PLANTED_N = 20_000


def _planted_rank_spectra():
    # one dominant gap after p, tail below the ratio floor
    rng = np.random.default_rng(72)
    k, cols, n = 8, 16, _PLANTED_N
    for trial in range(30):
        p = int(rng.integers(1, 4))
        lead = np.sort(rng.uniform(1.0, 2.0, size=p))[::-1]
        tail_scale = lead[0] / (2.0 * math.sqrt(k * n))
        tail = rng.uniform(0.2, 1.0, size=5 - p) * tail_scale
        m = matrix_with_spectrum(rng, k, cols, np.concatenate([lead, tail]))
        yield trial, p, m


def test_scan_finds_planted_rank_across_spectra():
    for trial, p, m in _planted_rank_spectra():
        scan = scan_model_order(m, p_cap=5, n=_PLANTED_N)
        assert scan.p_hat == p, f"trial {trial}: expected {p}, got {scan.p_hat}"


def test_scan_accepts_augmented_cov():
    data = gen_sim1(k=12, n=300, seed=7)
    aug = build_augmented(data.y, lag_lo=1, lag_hi=2)
    scan = scan_model_order(aug.matrix, p_cap=5, n=aug.N)
    assert scan.p_hat == 1


def test_scan_requires_sample_count_for_plain_arrays():
    with pytest.raises(ValueError, match="sample count"):
        scan_model_order(np.diag([3.0, 1.0]), p_cap=1)


def test_scan_rejects_zero_matrix():
    with pytest.raises(ValueError, match="zero"):
        scan_model_order(np.zeros((4, 8)), p_cap=2, n=100)


def test_scan_p_cap_bounds():
    m = np.diag([5.0, 2.0, 1.0])
    with pytest.raises(ValueError, match="p_cap"):
        scan_model_order(m, p_cap=0, n=100)
    with pytest.raises(ValueError, match="p_cap"):
        scan_model_order(m, p_cap=3, n=100)   # needs gamma_{p+1}


def _assert_scan_matches_old_loop(mat, p_cap, n):
    """The scan against the old loop: hybrid3 per rank, full R diagonal.

    The scan hands back the same permutations, and the R-only QR spans
    the same columns as the full decomposition, so the ratios agree bit
    for bit.
    """
    scan = scan_model_order(mat, p_cap=p_cap, n=n)
    p_hat, epsilon, ratios, old_passes, orders = old_scan(mat, p_cap, n)
    assert scan.p_hat == p_hat
    assert scan.epsilon == epsilon
    assert_array_equal(scan.ratios(), ratios)
    assert scan.orders == tuple(perm.order for perm in orders)
    assert len(scan.passes) == p_cap and min(scan.passes) >= 1
    return scan, old_passes


def _scan_panel(kind, seed):
    if kind == "sim1":
        return gen_sim1(k=20, n=200, seed=seed).y
    if kind == "sim2 hurst":
        return gen_sim2(SimConfig(scenario="sim2", k=30, n=200, seed=seed,
                                  noise_kind="hurst")).y
    return _noiseless_two_factor(seed, k=20, n=200)[0]


@pytest.mark.parametrize("kind", ["sim1", "sim2 hurst", "exact rank"])
def test_scan_matches_old_loop(kind):
    for seed in range(5):
        aug = build_augmented(_scan_panel(kind, seed), lag_lo=1, lag_hi=5)
        _assert_scan_matches_old_loop(np.asarray(aug.matrix), 10, aug.N)


def test_scan_matches_old_loop_on_planted_spectra():
    for _, _, m in _planted_rank_spectra():
        _assert_scan_matches_old_loop(m, 5, _PLANTED_N)


def test_scan_spends_fewer_passes_than_old_loop():
    # the paper's largest cell: K=180, N=500, lags 1..5, default cap
    aug = build_augmented(gen_sim1(k=180, n=500, seed=0).y, lag_lo=1,
                          lag_hi=5)
    scan, old_passes = _assert_scan_matches_old_loop(
        np.asarray(aug.matrix), 15, aug.N)
    assert sum(scan.passes) < old_passes


def test_scan_iteration_error_names_rank_boundaries_and_passes(monkeypatch):
    # an inverse-row-norm exchange that keeps claiming a swap at boundary
    # 3 never settles; the 4x4 matrix gets 10 * 4 passes a sweep
    real = rrqr._weak_exchange

    def stuck(search, order, b):
        return b == 3 or real(search, order, b)

    monkeypatch.setattr(rrqr, "_weak_exchange", stuck)
    m = np.diag([4.0, 2.0, 1.0, 0.5])
    want = (r"rank 2 \(boundaries 2 and 3\) after 40 passes, "
            r"the last sweep at boundary 3")
    with pytest.raises(RrqrIterationError, match=want) as scan_err:
        scan_model_order(m, p_cap=3, n=100)
    # hybrid3 sweeps boundary 2 first (one pass) before getting stuck
    with pytest.raises(RrqrIterationError,
                       match=want.replace("40", "41")) as hybrid_err:
        hybrid3(m, 2)
    # the state a replay needs rides on the error: the diagonal's columns
    # are in their own order, which the stuck exchange never moves
    for info, passes in ((scan_err, 40), (hybrid_err, 41)):
        err = info.value
        assert (err.rank, err.boundary, err.passes) == (2, 3, passes)
        assert err.order == (0, 1, 2, 3)
    # and replays it: the same loop from that order sticks at the same place
    with pytest.raises(RrqrIterationError, match=want.replace("40", "41")):
        hybrid3(m, scan_err.value.rank, init=scan_err.value.order)


# ------------------------------------------------------------------
# end-to-end fit


def _noiseless_two_factor(seed, k=10, n=500):
    rng = np.random.default_rng(seed)
    h = rng.uniform(-2.0, 2.0, size=(k, 2))
    x = np.empty((2, n))
    innov = rng.standard_normal((2, n))
    x[:, 0] = innov[:, 0]
    for t in range(1, n):   # serially correlated so lag covariances see it
        x[:, t] = 0.8 * x[:, t - 1] + innov[:, t]
    return TimeSeries(h @ x), h


def test_fit_recovers_noiseless_two_factor_span():
    ts, h = _noiseless_two_factor(81)
    fit = fit_rrqr(ts)
    assert fit.p_hat == 2
    q_true = np.linalg.qr(h)[0]
    assert subspace_error(fit.q_hat, q_true) <= 1e-8


def test_fit_output_contract():
    data = gen_sim1(k=15, n=400, seed=82)
    fit = fit_rrqr(data.y)
    assert fit.method == "RRQR"
    assert fit.p_hat == 1
    k = data.y.K
    assert fit.q_hat.shape == (k, 1)
    assert np.linalg.norm(fit.q_hat.T @ fit.q_hat - np.eye(1)) <= 1e-10
    assert_allclose(fit.factors, fit.q_hat.T @ demean(data.y).values,
                    rtol=1e-12)
    assert fit.scan is not None and fit.scan.p_hat == 1
    for key in ("r11_min_sv", "r22_max_sv", "passes", "epsilon"):
        assert key in fit.diagnostics


def test_fit_takes_its_basis_from_the_scan_order(monkeypatch):
    # one qr_cp seed per fit, the scan's rank-1 pivot (read from dnrm2,
    # no dgeqp3), and the basis is the scan's order at p_hat as it is, a
    # fixed point of hybrid1 there, so no sweep runs; on this panel a cold
    # hybrid1 settles on another order with a weaker R11 and a stronger
    # R22
    calls = []
    real = rrqr._qr_cp_order

    def counted(a, steps):
        calls.append(steps)
        return real(a, steps)

    monkeypatch.setattr(rrqr, "_qr_cp_order", counted)
    ts = gen_sim2(SimConfig(scenario="sim2", k=30, n=200, seed=9,
                            noise_kind="hurst")).y
    fit = fit_rrqr(ts, lag_lo=1, lag_hi=5)
    assert calls == [1]
    assert fit.diagnostics["passes"] == 1
    p = fit.p_hat
    mat = np.asarray(build_augmented(ts, lag_lo=1, lag_hi=5).matrix)
    n = mat.shape[1]
    svs = np.linalg.svd(mat, compute_uv=False)
    r11 = fit.diagnostics["r11_min_sv"]
    r22 = fit.diagnostics["r22_max_sv"]
    scale1 = np.sqrt(p * (n - p + 1))
    scale2 = np.sqrt((p + 1) * (n - p))
    assert r11 >= svs[p - 1] / scale1 * (1 - 1e-9)
    assert r22 <= r11 * scale1 * (1 + 1e-9)
    assert r22 <= svs[p] * scale2 * (1 + 1e-9)
    assert r11 >= r22 / scale2 * (1 - 1e-9)


@pytest.mark.parametrize("kind", ["sim1", "sim2 hurst"])
def test_fit_block_singular_values_are_hybrid1s(kind):
    # sigma_min(R11) bit for bit, sigma_max(R22) within 1e-13 relative of
    # the SVD of R22 from hybrid1's full decomposition at the same order
    for seed in range(4):
        ts = _scan_panel(kind, seed)
        fit = fit_rrqr(ts, lag_lo=1, lag_hi=5)
        aug = build_augmented(ts, lag_lo=1, lag_hi=5)
        res = hybrid1(aug.scaled, fit.p_hat,
                      init=fit.scan.orders[fit.p_hat - 1])
        assert fit.diagnostics["r11_min_sv"] == np.ldexp(res.r11_min_sv,
                                                         aug.exponent)
        assert_allclose(fit.diagnostics["r22_max_sv"],
                        np.ldexp(res.r22_max_sv, aug.exponent), rtol=1e-13)


def test_fit_r22_vanishes_at_exact_rank_and_full_rank():
    for seed in range(4):
        ts = exact_rank_three(seed)
        top = np.linalg.svd(build_augmented(ts, 1, 2).matrix,
                            compute_uv=False)[0]
        fit = fit_rrqr(ts, lag_lo=1, lag_hi=2)
        assert fit.p_hat == 3
        assert fit.diagnostics["r22_max_sv"] <= 1e-10 * top
        # no trailing block at all: R22 is 0 x (n - K)
        full = fit_rrqr(ts, lag_lo=1, lag_hi=2, p_override=ts.K)
        assert full.diagnostics["r22_max_sv"] == 0.0


def _eager_r22(ts, lag_hi, p, order):
    """sigma_max(R22) as the fit once computed it inside the basis step:
    on the basis's own pivot search, at the order the basis used."""
    aug = build_augmented(ts, 1, lag_hi)
    search = rrqr._PivotSearch(aug.scaled, aug.exponent)
    q1, _, _, used = rrqr._loading_basis(search, p, order)
    return rrqr._r22_max_sv(search, q1, used)


@pytest.mark.parametrize("kind", ["sim1", "exact rank"])
def test_fit_reads_r22_on_demand_as_the_basis_step_would(kind):
    # bit for bit: scanned, pinned below the rank's width, and pinned at
    # p = min(K, n), where there is no trailing block and R22 is 0.0
    for seed in range(2):
        ts = (gen_sim1(k=20, n=200, seed=seed).y if kind == "sim1"
              else exact_rank_three(seed, k=12, n=200))
        for p_override in (None, 2, ts.K):
            fit = fit_rrqr(ts, 1, 2, p_override=p_override)
            order = (fit.scan.orders[fit.p_hat - 1] if p_override is None
                     else None)
            want = _eager_r22(ts, 2, fit.p_hat, order)
            got = fit.diagnostics["r22_max_sv"]
            assert type(got) is float
            assert got == want and np.signbit(got) == np.signbit(want)
            if p_override == ts.K:
                assert got == 0.0


def test_fitters_that_never_read_r22_never_compute_it(monkeypatch):
    calls = []
    real = rrqr._r22_max_sv

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(rrqr, "_r22_max_sv", counted)
    monkeypatch.setattr(factor_rrqr, "_r22_max_sv", counted)
    ts = gen_sim1(k=12, n=160, seed=90).y
    rolling_eval(ts, "rrqr", window=100, refit_stride=20, ar_order=2,
                 eval_len=60)
    monte_carlo(SimConfig(scenario="sim1", k=10, n=120, seed=91), trials=2,
                methods=("rrqr",), outputs=("errors", "ratios", "rmse",
                                            "forecast"))
    fit = fit_rrqr(ts)
    assert "r22_max_sv" in fit.diagnostics
    assert fit.diagnostics["r11_min_sv"] > 0.0
    assert calls == []
    value = fit.diagnostics["r22_max_sv"]
    assert len(calls) == 1
    assert fit.diagnostics["r22_max_sv"] is value
    assert dict(fit.diagnostics)["r22_max_sv"] is value
    assert len(calls) == 1


def test_fit_diagnostics_behave_as_a_read_only_dict():
    ts = gen_sim1(k=12, n=160, seed=92).y
    for fit, keys in ((fit_rrqr(ts), ["r11_min_sv", "r22_max_sv", "passes",
                                      "epsilon"]),
                      (fit_rrqr(ts, p_override=2),
                       ["r11_min_sv", "r22_max_sv", "passes"])):
        diag = fit.diagnostics
        assert list(diag) == keys and len(diag) == len(keys)
        assert "r22_max_sv" in diag and "lambda_top" not in diag
        plain = {**diag}
        assert list(plain) == keys and type(plain) is dict
        assert plain == dict(diag) == dict(diag.items())
        assert diag == plain and plain == diag
        assert diag != {**plain, "passes": plain["passes"] + 1}
        assert repr(diag) == repr(plain)
        with pytest.raises(KeyError):
            diag["lambda_top"]
        with pytest.raises(TypeError):
            diag["passes"] = 2.0


def test_fit_p_override_skips_scan():
    data = gen_sim1(k=12, n=300, seed=83)
    fit = fit_rrqr(data.y, p_override=3)
    assert fit.p_hat == 3
    assert fit.scan is None
    assert fit.q_hat.shape == (12, 3)


def test_fit_rejects_bad_overrides():
    data = gen_sim1(k=8, n=200, seed=84)
    with pytest.raises(ValueError):
        fit_rrqr(data.y, p_override=0)
    with pytest.raises(ValueError):
        fit_rrqr(data.y, p_override=99)
    with pytest.raises(ValueError):
        fit_rrqr(data.y, p_cap=0)


_FIT_RANKS = {
    "fit_rrqr p_override": lambda ts, v: fit_rrqr(ts, p_override=v),
    "fit_rrqr p_cap": lambda ts, v: fit_rrqr(ts, p_cap=v),
    "scan_model_order p_cap": lambda ts, v: scan_model_order(
        build_augmented(ts, 1, 2).scaled, p_cap=v, n=ts.N),
    "fit_evd p_override": lambda ts, v: fit_evd(ts, p_override=v),
    "fit_evd p_cap": lambda ts, v: fit_evd(ts, p_cap=v),
    "fit_pca p_override": lambda ts, v: fit_pca(ts, p_override=v),
    "fit_pca p_cap": lambda ts, v: fit_pca(ts, p_cap=v),
}


@pytest.mark.parametrize("value", [2.0, 2.5])
@pytest.mark.parametrize("case", list(_FIT_RANKS))
def test_fits_reject_non_integer_ranks(case, value):
    # a float rank is refused, not truncated: p_override=2.5 once fit rank 2
    ts = gen_sim1(k=8, n=200, seed=84).y
    with pytest.raises(ValueError) as err:
        _FIT_RANKS[case](ts, value)
    assert str(err.value) == f"{case.split()[1]} must be an integer, got {value!r}"


@pytest.mark.parametrize("case", list(_FIT_RANKS))
def test_fits_take_numpy_integer_ranks(case):
    ts = gen_sim1(k=8, n=200, seed=84).y
    want = _FIT_RANKS[case](ts, 2)
    for value in (np.int64(2), np.int32(2), np.uint8(2)):
        got = _FIT_RANKS[case](ts, value)
        if case.startswith("scan"):
            assert got == want
        else:
            assert type(got.p_hat) is int and got.p_hat == want.p_hat
            assert_array_equal(got.q_hat, want.q_hat)
            assert got.scan == want.scan


def test_fit_is_deterministic():
    data = gen_sim1(k=10, n=250, seed=85)
    one, two = fit_rrqr(data.y), fit_rrqr(data.y)
    assert_array_equal(one.q_hat, two.q_hat)
    assert_array_equal(one.factors, two.factors)
    assert one.p_hat == two.p_hat


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(sign_flip_panels())
def test_fit_is_sign_flip_equivariant(case):
    # y -> Dy makes M~ D M~ (I (x) D); every norm, pick and ratio is the
    # same bit for bit, and q_hat becomes D q_hat up to column signs
    y, lag_hi, d = case
    base = fit_rrqr(TimeSeries(y), 1, lag_hi)
    fit = fit_rrqr(TimeSeries(d[:, None] * y), 1, lag_hi)
    event(f"p_hat {base.p_hat}")
    assert fit.p_hat == base.p_hat
    assert fit.scan == base.scan
    assert fit.diagnostics == base.diagnostics
    flipped = d[:, None] * base.q_hat
    top = np.abs(flipped).argmax(axis=0)
    cols = np.arange(base.p_hat)
    s = np.sign(fit.q_hat[top, cols] * flipped[top, cols])
    assert_array_equal(fit.q_hat, flipped * s)
    assert_array_equal(fit.factors, s[:, None] * base.factors)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(sign_flip_panels())
def test_scan_is_sign_flip_equivariant(case):
    # scan_model_order on D M~ (I (x) D), M~ the lag products of the
    # normalized panel: each column is its own column with some entries
    # negated, so every norm, projection and pick is the same bit for
    # bit, and so are the gammas, ratios, epsilon, passes and orders
    y, lag_hi, d = case
    ts = TimeSeries(y)
    m = covariance._lag_products(ts._normalized[0], range(1, lag_hi + 1))
    base = scan_model_order(m, n=ts.N)
    scan = scan_model_order(d[:, None] * m * np.tile(d, lag_hi), n=ts.N)
    event(f"p_hat {base.p_hat}")
    assert scan == base


# ------------------------------------------------------------------
# series permutations: y -> Py permutes the rows of M~ and, alike, the
# columns within each of its blocks


_U = np.finfo(float).eps / 2


def _permutation_bounds(m, z, lags):
    """Bounds between the rank scan of M~ = m, the lag products of the
    normalized panel z, and the scan of P M~ Pi, P a row and Pi a column
    permutation, both computed; in units of M~'s largest column norm.

    A row permutation is orthogonal, so in exact arithmetic both scans
    see the same R and make the same picks, mapped through Pi. Computed:

    * The two matrices differ by cov, twice lag_product_rounding: the
      covariances of permuted series are the same dot products, each
      within that rounding, and so are columns that are equal exactly
      (copied series), which exact ties may swap.
    * Each scan's R of its first j ordered columns is the exact R of
      those columns plus E, ||e_t|| <= 4 K j u ||a_t|| per column, u =
      eps/2 (Householder QR; Higham, *Accuracy and Stability of
      Numerical Algorithms*, 2nd ed., Thm 19.4): ||E||_2 <= 4 K j^1.5 u.
      So both leading blocks are exact R's of matrices within
      e_j = cov + 8 K j^1.5 u of each other.
    * gamma_j = 1 / ||e_j^T R_j^{-1}||, the last row of A_j's
      pseudo-inverse, which moves by at most sqrt(2) ||A_j^+||^2 e_j
      (Wedin's bound for a perturbation that keeps the rank). At a fixed
      point of boundary j the inverse-row-norm exchange keeps the last
      column, whose inverse row norm is then the largest within the swap
      tolerance, so ||R_j^{-1}||_2 <= sqrt(j) / gamma_j (to 1e-12) and
      |dgamma_j| <= sqrt(2) j e_j to first order.
      The bound b_j = 2 sqrt(2) j e_j doubles it for the second order.
      Rank i's order is a fixed point of boundaries i and i+1, so b_i and
      b_{i+1} bound both its gammas.
    * The ratio (g_i + rho) / (g_{i+1} + rho), g = gamma / gamma_1 and
      rho = 1 / sqrt(K n) the floor's share, moves by at most
      2 [(b_i + rho b_1) / (g_i + rho) + (b_{i+1} + rho b_1) /
      (g_{i+1} + rho)] + 8 eps relative: each gamma's bound, the floor's
      through gamma_1, doubled, and both scans' roundings of the formula.
    * The basis at p spans A_p's perturbed columns, which turn by at most
      ||E||_2 / sigma_min(A_p) <= sqrt(p) e_p / g_p (Wedin's sin theta
      theorem, sigma_min >= gamma_p / sqrt(p) as above), and each
      computed Q is within 4 K p^1.5 u of an orthonormal basis of them
      (Thm 19.4), so the projectors differ by at most
      2 (sqrt(p) e_p / g_p + 16 K p^1.5 u + 4 K u), the last term
      subspace_error's own rounding.

    Returns (e, b, rho, K): e_j and b_j for j = 1..min(K, n).
    """
    k, n = m.shape
    cov = 2 * lag_product_rounding(z, m, lags) / col_norms(m).max()
    j = np.arange(1, min(k, n) + 1)
    e = cov + 8 * k * j ** 1.5 * _U
    return e, 2 * math.sqrt(2) * j * e, 1 / math.sqrt(k * n), k


def _ratio_bound(bounds, i, g, g_next):
    """_permutation_bounds' relative bound on rank i's ratio, whose
    gammas over gamma_1 are g and g_next."""
    _, b, rho, _ = bounds
    return (2 * ((b[i - 1] + rho * b[0]) / (g + rho)
                 + (b[i] + rho * b[0]) / (g_next + rho))
            + 8 * np.finfo(float).eps)


def _span_bound(bounds, p, g_p):
    """_permutation_bounds' bound on the distance between the rank-p
    bases, gamma_p over gamma_1 being g_p."""
    e, _, _, k = bounds
    return 2 * (math.sqrt(p) * e[p - 1] / g_p + 16 * k * p ** 1.5 * _U
                + 4 * k * _U)


def _ties(norms, tol, d, rel=0.0) -> bool:
    """Whether two of `norms` above tol lie within twice the swap
    tolerance (plus rel) relative plus d absolute of each other, or one
    lies within d of tol: the comparisons whose outcome rounding of
    that size can flip (_pick_challenger, _beats, the deflation rule)."""
    v = np.sort(norms[np.isfinite(norms)])
    if (np.abs(v - tol) <= d).any():
        return True
    v = v[v > tol]
    return bool((np.diff(v) <= (2 * rrqr._SWAP_RTOL + rel) * v[1:] + d).any())


@contextmanager
def _tie_watch(bounds):
    """Yield a set that collects each rank whose loop (at rank 1 with
    its seed) compares tied norms (_ties): the projected trailing norms
    of a column-pivot exchange at boundary j, with d twice b_j times the
    largest column norm, or the inverse row norms of an inverse-row-norm
    exchange, with rel 2 sqrt(j) b_j ||R^{-1}|| and its pivots within d
    of the deflation tolerance. Only at such a comparison can the
    rounding that differs between two scans flip a pick."""
    b = bounds[1]
    tied, rank = set(), [1]
    fixed_point, strong, weak = (rrqr._fixed_point, rrqr._strong_exchange,
                                 rrqr._weak_exchange)

    def at_rank(search, order, p, *args, **kwargs):
        rank[0] = p
        return fixed_point(search, order, p, *args, **kwargs)

    def watched_strong(search, order, boundary):
        i, a = boundary - 1, search.a
        if i:
            q = rrqr._qr(a, order[:i], "economic", search.tol)[0]
            norms = rrqr._residual_norms(a, q, q.T @ a)[order[i:]]
        else:
            norms = np.sqrt(search.sums)[order]
        if _ties(norms, search.tol, 2 * b[i] * math.sqrt(search.sums.max())):
            tied.add(rank[0])
        return strong(search, order, boundary)

    def watched_weak(search, order, boundary):
        if boundary > 1:
            r = rrqr._qr(search.a, order[:boundary], "economic", search.tol)[1]
            d = 2 * b[boundary - 1] * math.sqrt(search.sums.max())
            smin = singular_values(r)[-1]
            rel = math.sqrt(boundary) * d / smin if smin > 0 else 0.0
            if (np.abs(np.abs(np.diagonal(r)) - search.tol) <= d).any() \
                    or _ties(rrqr._inverse_row_norms(r, search.tol), 0.0, 0.0, rel):
                tied.add(rank[0])
        return weak(search, order, boundary)

    with patch.object(rrqr, "_fixed_point", at_rank), \
            patch.object(rrqr, "_strong_exchange", watched_strong), \
            patch.object(rrqr, "_weak_exchange", watched_weak):
        yield tied


def _unit_scan(ts, lag_hi):
    """M~ at the normalized panel's scale, the scan of it, with the ranks
    whose loops tied (_tie_watch), and its _permutation_bounds."""
    z = ts._normalized[0]
    lags = range(1, lag_hi + 1)
    m = covariance._lag_products(z, lags)
    bounds = _permutation_bounds(m, z, lags)
    with _tie_watch(bounds) as tied:
        scan = scan_model_order(m, n=ts.N)
    return m, scan, tied, bounds


def _close(x, y, bound) -> bool:
    """|x - y| <= bound, or x == y (both saturated to 0 or inf)."""
    return x == y or abs(x - y) <= bound


def _assert_scans_agree(scan, base, unit, cols, tied, bounds):
    """scan, of M~'s permutation whose column t is column cols[t] of M~
    with its rows permuted, against base, M~'s scan at the same scale:
    the same p_hat, gammas and ratios within _permutation_bounds (the
    gammas' in units of base's gamma_1, g and the ratio bound read from
    unit, M~'s scan at unit scale), and, at ranks below the first that
    tied, each rank's first i+1 columns, those its picks decide, mapped
    through the permutation. The columns behind them are where the swaps
    left the identity start, which no permutation maps."""
    b = bounds[1]
    assert scan.p_hat == base.p_hat
    to_scan = np.argsort(cols)
    top, unit_top = base.candidates[0].gamma, unit.candidates[0].gamma
    rows = zip(scan.candidates, base.candidates, unit.candidates,
               scan.orders, base.orders)
    for c, c0, u, order, order0 in rows:
        i = c0.index
        if i < min(tied, default=i + 1):
            picked = to_scan[list(order0[:i + 1])].tolist()
            assert order[:i + 1] == tuple(picked), i
        assert _close(c.gamma, c0.gamma, b[i - 1] * top), i
        assert _close(c.gamma_next, c0.gamma_next, b[i] * top), i
        rel = _ratio_bound(bounds, i, u.gamma / unit_top,
                           u.gamma_next / unit_top)
        assert abs(c.ratio - c0.ratio) <= rel * c0.ratio, i


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(permuted_panels())
def test_fit_is_series_permutation_equivariant(case):
    # y -> Py: M~ becomes P M~ (I (x) P^T); p_hat is the same, the
    # gammas, ratios and span agree within _permutation_bounds, and the
    # scan orders map through the permutation up to the first tie
    y, lag_hi, perm = case
    ts = TimeSeries(y)
    base = fit_rrqr(ts, 1, lag_hi)
    fit = fit_rrqr(TimeSeries(y[perm]), 1, lag_hi)
    _, unit, tied, bounds = _unit_scan(ts, lag_hi)
    assert (base.scan.ratios() == unit.ratios()).all()
    assert base.scan.orders == unit.orders
    event(f"p_hat {base.p_hat}, {'tied' if tied else 'untied'}")
    k = ts.K
    cols = np.concatenate([blk * k + perm for blk in range(lag_hi)])
    _assert_scans_agree(fit.scan, base.scan, unit, cols, tied, bounds)
    p = base.p_hat
    g_p = unit.candidates[p - 1].gamma / unit.candidates[0].gamma
    assert subspace_error(fit.q_hat, base.q_hat[perm]) \
        <= _span_bound(bounds, p, g_p)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(permuted_panels(), st.integers(0, 2**32 - 1))
def test_scan_is_row_and_block_column_permutation_equivariant(case, seed):
    # scan_model_order on M~ with its rows permuted by the series
    # permutation and the columns of each block by their own: the same
    # properties, on the matrix as given
    y, lag_hi, perm = case
    ts = TimeSeries(y)
    m, base, tied, bounds = _unit_scan(ts, lag_hi)
    rng = np.random.default_rng(seed)
    k = ts.K
    cols = np.concatenate([blk * k + rng.permutation(k)
                           for blk in range(lag_hi)])
    scan = scan_model_order(m[perm][:, cols], n=ts.N)
    event(f"p_hat {base.p_hat}, {'tied' if tied else 'untied'}")
    _assert_scans_agree(scan, base, base, cols, tied, bounds)


def _assert_same_fit(fit, base, shift):
    """Same rank, loadings and ratio curve bit for bit; factor paths
    scaled by exactly 2^shift, saturating where they leave the range."""
    assert fit.p_hat == base.p_hat
    assert_array_equal(fit.q_hat, base.q_hat)
    if base.scan is not None:
        assert_array_equal(fit.scan.ratios(), base.scan.ratios())
    with np.errstate(over="ignore"):
        assert_array_equal(fit.factors, np.ldexp(base.factors, shift))


@pytest.mark.parametrize("scale", [1e-100, 1e100])
def test_fit_is_scale_invariant_at_extreme_scales(scale):
    data = gen_sim1(k=20, n=200, seed=0)
    base = fit_rrqr(data.y, lag_lo=1, lag_hi=5)
    fit = fit_rrqr(TimeSeries(scale * data.y.values), lag_lo=1, lag_hi=5)
    assert fit.p_hat == base.p_hat
    assert subspace_error(fit.q_hat, base.q_hat) <= 1e-10


@pytest.mark.parametrize("method", ["rrqr", "evd", "pca"])
def test_fitters_are_scale_invariant_at_extreme_scales(method):
    values = gen_sim1(k=20, n=200, seed=0).y.values

    def fit(v):
        return fit_method(method, TimeSeries(v), lag_lo=1, lag_hi=5)

    base = fit(values)
    # a power of two rescales every entry exactly
    for k in (-1000, 1000):
        _assert_same_fit(fit(np.ldexp(values, k)), base, k)
    # any other factor rounds every entry, which moves only round-off
    for c in (1e-300, 1e300):
        scaled = fit(c * values)
        assert scaled.p_hat == base.p_hat
        assert subspace_error(scaled.q_hat, base.q_hat) <= 1e-10
    # entries reach +-1.7e308, so the widest series range overflows
    top = values * (1.7e308 / np.abs(values).max())
    _assert_same_fit(fit(top), fit(np.ldexp(top, -2000)), 2000)


@pytest.mark.parametrize("method", ["rrqr", "evd", "pca"])
def test_constant_series_far_above_the_others_drops_out(method):
    # scaled to the varying series' range, the constant 1e300 series
    # overflows; it still centers to exactly 0 and adds nothing to the fit
    varying = 1e-20 * gen_sim1(k=3, n=200, seed=0).y.values
    values = np.vstack([np.full(200, 1e300), varying])

    def fit(v):
        return fit_method(method, TimeSeries(v), lag_lo=1, lag_hi=2, p_cap=2)

    full, alone = fit(values), fit(varying)
    assert full.p_hat == alone.p_hat
    padded = np.vstack([np.zeros((1, alone.p_hat)), alone.q_hat])
    assert subspace_error(full.q_hat, padded) <= 1e-10
    assert_allclose(full.q_hat @ full.factors, padded @ alone.factors,
                    rtol=1e-10, atol=1e-30)


def test_fit_fits_at_underflowing_scale():
    # every raw lag covariance underflows to exactly 0 here; the fit reads
    # the normalized panel, and only epsilon, at about 1e-400, saturates
    data = gen_sim1(k=20, n=200, seed=0)
    base = fit_rrqr(data.y, lag_lo=1, lag_hi=5)
    fit = fit_rrqr(TimeSeries(1e-200 * data.y.values), lag_lo=1, lag_hi=5)
    assert fit.p_hat == base.p_hat
    assert subspace_error(fit.q_hat, base.q_hat) <= 1e-10
    assert_allclose(fit.scan.ratios(), base.scan.ratios(), rtol=1e-10)
    assert fit.scan.epsilon == 0.0
    assert_allclose(fit.factors, 1e-200 * base.factors, rtol=1e-10,
                    atol=1e-210)


def test_fit_result_arrays_are_frozen():
    data = gen_sim1(k=8, n=200, seed=86)
    fit = fit_rrqr(data.y)
    with pytest.raises(ValueError):
        fit.q_hat[0, 0] = 0.0
    with pytest.raises(ValueError):
        fit.factors[0, 0] = 0.0


def test_fit_container_validates_rank_consistency():
    q = random_orthonormal(np.random.default_rng(87), 6, 2)
    with pytest.raises(ValueError):
        FactorModelFit(method="rrqr", p_hat=3, q_hat=q,
                       factors=np.zeros((3, 10)))


@pytest.mark.parametrize("call,message", [
    (lambda: FactorModelFit(method="rrqr", p_hat=3, q_hat=np.eye(6)[:, :2],
                            factors=np.zeros((2, 10))),
     "p_hat=3 but q_hat has 2 columns"),
    (lambda: fit_rrqr(gen_sim1(k=6, n=100, seed=88).y, p_override=7),
     "p_override must be in [1, 6], got 7 (fit --p, sim --p-override)"),
    (lambda: scan_model_order(np.eye(4), p_cap=4, n=100),
     "p_cap must be in [1, 3], got 4 (--p-cap)"),
], ids=["p_hat not q_hat's width", "p_override", "p_cap"])
def test_bad_input_messages(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("shape", [(1, 4), (3, 1), (1, 1)])
def test_a_rank_scan_needs_two_rows_and_two_columns(shape):
    # one row or one column leaves rank 1 without a successor; the scan
    # says so and names the shape, while a fitter given a single series
    # still asks for the factor count to be pinned
    with pytest.raises(ValueError) as err:
        scan_model_order(np.ones(shape), n=100)
    assert str(err.value) == ("a rank scan needs at least 2 rows and 2 "
                              f"columns, got a {shape[0]} x {shape[1]} "
                              "matrix")
    one = gen_sim1(k=4, n=100, seed=88).y.values[:1]
    with pytest.raises(ValueError, match="^no candidate rank to choose"):
        fit_rrqr(TimeSeries(one))


_PIN_HINT = ("; pin the factor count with p_override (qrfactors fit --p, "
             "sim --p-override)")


@pytest.mark.parametrize("fit,shape,why", [
    (fit_rrqr, (1, 100), "a single series has none"),
    (fit_pca, (6, 2), "2 samples have none: demeaned, the panel has rank "
                      "at most 1"),
], ids=["rrqr, one series", "pca, two samples"])
def test_no_candidate_rank_names_the_limit_that_binds(fit, shape, why):
    # K = 1 leaves no rank with a successor; N = 2 samples leave six
    # series rank at most 1 once demeaned, which the criterion cannot
    # take either: the message names whichever binds
    y = np.random.default_rng(89).standard_normal(shape)
    with pytest.raises(ValueError) as err:
        fit(TimeSeries(y))
    assert str(err.value) == f"no candidate rank to choose from ({why})" + _PIN_HINT


def _rank_outcome(rule, *args):
    try:
        return rule(*args)
    except ValueError as err:
        return str(err)


def test_fit_ranks_are_the_three_old_rules():
    # one table row per method against the three helpers it replaced,
    # over 3 methods x 6 K x 6 N x 5 pins x 10 caps = 5,400 cases; only
    # two groups may differ, each in one stated way
    outcomes = {"same": 0, "evd pin, N=2": 0, "K=1, N=2": 0}
    for method in ("rrqr", "evd", "pca"):
        for k in range(1, 7):
            for n in range(2, 8):
                for p_override in (None, 0, 1, 2, 6):
                    for p_cap in (None, 0, 1, 2, 3, 4, 5, 6, 15, 40):
                        args = (k, n, p_override, p_cap)
                        old = _rank_outcome(OLD_RANK_RULES[method], *args)
                        new = _rank_outcome(factor_rrqr._fit_ranks, method,
                                            *args)
                        if new == old:
                            outcomes["same"] += 1
                        elif (method == "evd" and n == 2 and k > 1
                              and p_override in range(1, k + 1)):
                            # a pinned evd fit of 2 samples has no curve
                            # to cap; it no longer asks to pin its rank
                            assert old.startswith("no candidate rank")
                            assert new == (p_override, None)
                            outcomes["evd pin, N=2"] += 1
                        else:
                            # one series at 2 samples: the series binds
                            assert method != "rrqr"
                            assert (k, n, p_override) == (1, 2, None)
                            assert old == ("no candidate rank to choose from "
                                           "(2 samples have none: demeaned, "
                                           "the panel has rank at most 1)"
                                           + _PIN_HINT)
                            assert new == ("no candidate rank to choose from "
                                           "(a single series has none)"
                                           + _PIN_HINT)
                            outcomes["K=1, N=2"] += 1
    # pins 1, 2 (and 6 at K=6) at K = 2..6, and evd and pca, each at 10 caps
    assert outcomes == {"same": 5270, "evd pin, N=2": 110, "K=1, N=2": 20}


def test_pinned_evd_of_two_samples_fails_on_its_lags():
    # two samples leave no ratio to cap; the pinned fit goes on to its
    # lag covariances, which two samples cannot give either
    y = np.random.default_rng(90).standard_normal((3, 2))
    with pytest.raises(ValueError) as err:
        fit_evd(TimeSeries(y), p_override=1)
    assert str(err.value) == "lag_hi=2 too large for N=2 (max 0)"
