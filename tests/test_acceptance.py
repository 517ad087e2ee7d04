"""Acceptance gate: one test and one verdict line per criterion.

Seeds are fixed per criterion (1000 x criterion number) and were chosen
before the first run, not tuned afterwards. Every assertion restates the
criterion it enforces; the verdict lines land in the terminal summary.
"""

import math
import os
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qrfactors.baselines import evd_spectrum, fit_evd, fit_pca
from qrfactors.covariance import build_augmented, sample_autocov
from qrfactors.factor_rrqr import fit_rrqr, scan_model_order
from qrfactors.forecast_eval import rolling_eval
from qrfactors.rrqr import gs_qr, hybrid1, hybrid2, hybrid3, qr_cp, singular_values, stewart2
from qrfactors.simgen import SimConfig, gen_sim1, gen_sim2, monte_carlo
from qrfactors.tsdata import TimeSeries

from conftest import acceptance_lines
from oracles import brute_autocov, interlacing_holds, svd2_closed

THREADS = os.cpu_count()


def _verdict(num: int, ok: bool, detail: str) -> str:
    line = f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    acceptance_lines.append(line)
    print(line)
    return line


# ------------------------------------------------------------------
# 1. loading-error table, single-factor scenario


def test_criterion_1_loading_error_table():
    # four (K, N) cells, 100 trials each, five lags in the stacked matrix
    cells = [(20, 200), (180, 200), (20, 500), (180, 500)]
    published = [11.8e-3, 12.3e-3, 10.9e-3, 11.3e-3]
    t0 = time.monotonic()
    results = []
    for (k, n) in cells:
        cfg = SimConfig(scenario="sim1", k=k, n=n, seed=1000,
                        lag_lo=1, lag_hi=5)
        rep = monte_carlo(cfg, trials=100, methods=("rrqr", "evd"),
                          outputs=("errors",), p_override=1, threads=THREADS)
        results.append((rep["per_method"]["rrqr"]["error_mean"],
                        rep["per_method"]["evd"]["error_mean"]))
    elapsed = time.monotonic() - t0

    parts, ok = [], elapsed < 600.0
    for (k, n), (r, e), pub in zip(cells, results, published):
        ordered = r < e
        in_band = 0.5 * pub <= r <= 2.0 * pub
        ok = ok and ordered and in_band
        parts.append(f"K={k},N={n}: rrqr {r * 1e3:.2f}e-3 "
                     f"{'<' if ordered else '>='} evd {e * 1e3:.2f}e-3, "
                     f"band [{0.5 * pub * 1e3:.2f}, {2 * pub * 1e3:.2f}]e-3 "
                     f"{'ok' if in_band else 'MISSED'}")
    line = _verdict(1, ok, "; ".join(parts) + f"; {elapsed:.0f}s")
    assert ok, line


# ------------------------------------------------------------------
# 2. model-order accuracy on the two-factor scenario


def _share_of_two(agg):
    return agg["p_hat_counts"].get(2, 0) / agg["trials_ok"]


def test_criterion_2_model_order_accuracy():
    t0 = time.monotonic()
    base = SimConfig(scenario="sim2", k=100, n=200, seed=2000)
    rep_iid = monte_carlo(base, trials=100, methods=("rrqr", "evd", "pca"),
                          outputs=(), threads=THREADS)
    hurst = SimConfig(scenario="sim2", k=100, n=200, seed=2000,
                      noise_kind="hurst", hurst_w=0.6, noise_scale=0.1)
    rep_h = monte_carlo(hurst, trials=100, methods=("rrqr", "evd", "pca"),
                        outputs=(), threads=THREADS)
    elapsed = time.monotonic() - t0

    iid = {m: _share_of_two(rep_iid["per_method"][m])
           for m in ("rrqr", "evd", "pca")}
    h_rrqr = _share_of_two(rep_h["per_method"]["rrqr"])
    h_evd = _share_of_two(rep_h["per_method"]["evd"])
    h_pca_med = rep_h["per_method"]["pca"]["p_hat_median"]

    ok = (all(v >= 0.95 for v in iid.values())
          and h_rrqr >= 0.90 and h_evd >= 0.90 and h_pca_med >= 10
          and elapsed < 900.0)
    detail = (f"iid p=2 shares rrqr {iid['rrqr']:.0%} evd {iid['evd']:.0%} "
              f"pca {iid['pca']:.0%} (need >=95%); correlated-noise shares "
              f"rrqr {h_rrqr:.0%} evd {h_evd:.0%} (need >=90%), "
              f"pca median {h_pca_med:.0f} (need >=10); {elapsed:.0f}s")
    line = _verdict(2, ok, detail)
    assert ok, line


# ------------------------------------------------------------------
# 3. ratio-curve shape at K comparable to N


def test_criterion_3_ratio_curve_shape():
    cfg = SimConfig(scenario="sim1", k=180, n=100, seed=3000,
                    lag_lo=1, lag_hi=5)
    # the curve prefix is warm-start identical under any larger cap
    rep = monte_carlo(cfg, trials=100, methods=("rrqr", "evd"),
                      outputs=("ratios",), p_cap=10, threads=THREADS)
    stats = {}
    for m in ("rrqr", "evd"):
        mean = np.array(rep["per_method"][m]["ratio_mean"])
        std = np.array(rep["per_method"][m]["ratio_std"])
        peak = int(np.argmax(mean)) + 1
        stats[m] = (peak, std[0] / mean[0])
    ok = (stats["rrqr"][0] == 1 and stats["evd"][0] == 1
          and stats["rrqr"][1] <= stats["evd"][1])
    detail = (f"peaks rrqr i={stats['rrqr'][0]} evd i={stats['evd'][0]} "
              f"(need both 1); rel std at peak rrqr {stats['rrqr'][1]:.3f} "
              f"<= evd {stats['evd'][1]:.3f}")
    line = _verdict(3, ok, detail)
    assert ok, line


# ------------------------------------------------------------------
# 4. hybrid pivoting bound suite


def test_criterion_4_hybrid_bounds():
    shapes = [(4, 8), (6, 12), (8, 40)]
    rng = np.random.default_rng(4000)
    slack = 1e-9
    checked = 0
    for i in range(500):
        k, n = shapes[i % 3]
        a = rng.standard_normal((k, n))
        svs = np.linalg.svd(a, compute_uv=False)
        for p in (1, 2, 3):
            lo = svs[p - 1] / math.sqrt(p * (n - p + 1))
            hi = svs[p] * math.sqrt((p + 1) * (n - p))
            r1 = hybrid1(a, p)
            r2 = hybrid2(a, p)
            r3 = hybrid3(a, p)
            for res, needs_lo, needs_hi in ((r1, True, False),
                                            (r2, False, True),
                                            (r3, True, True)):
                if needs_lo:
                    assert res.r11_min_sv >= lo * (1 - slack), \
                        f"matrix {i}, p={p}: leading-block floor violated"
                if needs_hi:
                    assert res.r22_max_sv <= hi * (1 + slack), \
                        f"matrix {i}, p={p}: trailing-block cap violated"
                checked += 1
    line = _verdict(4, True,
                    f"{checked} decompositions over 500 matrices x ranks 1..3 "
                    f"meet their bounds at 1e-9 relative slack")
    assert checked == 4500, line


# ------------------------------------------------------------------
# 5. oracle equivalence on small instances


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(5000)
    cells = 0
    for k in range(1, 5):
        for n in range(3, 13):
            ts = TimeSeries(rng.standard_normal((k, n)))
            for lag in range(0, n - 1):
                assert_allclose(sample_autocov(ts, lag).matrix,
                                brute_autocov(ts.values, lag), atol=1e-12)
                cells += 1

    for seed in range(10):
        ts = TimeSeries(np.random.default_rng(5100 + seed)
                        .standard_normal((6, 60)))
        lam = evd_spectrum(ts, lag_lo=1, lag_hi=3).eigenvalues
        m = build_augmented(ts, lag_lo=1, lag_hi=3).matrix
        assert_allclose(lam, np.linalg.svd(m, compute_uv=False) ** 2,
                        rtol=1e-10)

    pairs = 0
    for shape in [(3, 6), (5, 8), (8, 8)]:
        for _ in range(100):
            a = rng.standard_normal(shape)
            rows = int(rng.integers(1, shape[0] + 1))
            cols = int(rng.integers(1, shape[1] + 1))
            assert interlacing_holds(a, rows, cols)
            pairs += 1
    line = _verdict(5, True,
                    f"{cells} autocovariance cells match the scalar loop at "
                    f"1e-12; gram identity at 1e-10 on 10 panels; "
                    f"interlacing on {pairs} sub-block pairs")
    assert cells > 0 and pairs == 300, line


# ------------------------------------------------------------------
# 6. numerical invariants of every emitted basis


def _fit_battery():
    yield fit_rrqr(gen_sim1(k=20, n=200, seed=6001).y)
    yield fit_rrqr(gen_sim1(k=12, n=400, seed=6002).y, p_override=3)
    yield fit_evd(gen_sim1(k=20, n=200, seed=6003).y)
    yield fit_pca(gen_sim1(k=20, n=200, seed=6004).y)
    two = gen_sim2(SimConfig(scenario="sim2", k=16, n=300, seed=6005))
    yield fit_rrqr(two.y)
    yield fit_evd(two.y)
    yield fit_pca(two.y)


def test_criterion_6_numerical_invariants():
    fits = 0
    for fit in _fit_battery():
        defect = np.linalg.norm(fit.q_hat.T @ fit.q_hat
                                - np.eye(fit.p_hat))
        assert defect <= 1e-10, f"{fit.method}: orthonormality defect {defect:.2e}"
        fits += 1

    recons = 0
    rng = np.random.default_rng(6000)
    for shape in [(9, 5), (6, 6), (5, 11)]:
        for _ in range(10):
            a = rng.standard_normal(shape)
            scale = np.linalg.norm(a)
            out = gs_qr(a)
            assert np.linalg.norm(a - out.q @ out.r) <= 1e-10 * scale
            assert np.linalg.norm(out.q.T @ out.q
                                  - np.eye(out.q.shape[1])) <= 1e-10
            res = qr_cp(a, min(shape))
            permuted = a[:, list(res.perm.order)]
            assert np.linalg.norm(permuted - res.factors.q @ res.factors.r) \
                <= 1e-10 * scale
            hy = hybrid3(a, 2)
            assert np.linalg.norm(a[:, list(hy.perm.order)]
                                  - hy.factors.q @ hy.factors.r) <= 1e-10 * scale
            st = stewart2(a, 2)
            assert np.linalg.norm(a[:, list(st.perm.order)]
                                  - st.factors.q @ st.factors.r) \
                <= 1e-10 * scale
            recons += 4

    for seed in range(100):
        a = np.random.default_rng(6200 + seed).standard_normal((2, 2))
        want = svd2_closed(a)
        assert_allclose(singular_values(a), want,
                        rtol=1e-10, atol=1e-10 * want[0])
    line = _verdict(6, True,
                    f"{fits} fitted bases orthonormal at 1e-10; {recons} QR "
                    f"reconstructions at 1e-10 relative; 100 closed-form "
                    f"2x2 spectra at 1e-10")
    assert fits == 7 and recons == 120, line


# ------------------------------------------------------------------
# 7. the numerical-rank worked example


def test_criterion_7_worked_example():
    scan = scan_model_order(np.diag([18.0, 5.0, 0.8]), p_cap=2, n=10_000)
    eps = 18.0 / math.sqrt(3 * 10_000)
    ok = (scan.p_hat == 2 and scan.epsilon == eps)
    line = _verdict(7, ok,
                    f"diag(18, 5, 0.8) at n=10000: p_hat={scan.p_hat}, "
                    f"ratio floor {scan.epsilon:.6f}, ratios "
                    f"{scan.ratios().round(4).tolist()}")
    assert ok, line


# ------------------------------------------------------------------
# 8. rolling-forecast parity on a synthetic market


def test_criterion_8_rolling_forecast_parity():
    data = gen_sim1(k=50, n=1000, seed=8000)
    rep_r = rolling_eval(data.y, "rrqr")
    rep_e = rolling_eval(data.y, "evd")
    gap = abs(rep_r.fe - rep_e.fe) / rep_e.fe
    ok = (rep_r.p_hat_mean == 1.0 and rep_e.p_hat_mean == 1.0 and gap <= 0.05)
    line = _verdict(8, ok,
                    f"p_hat means rrqr {rep_r.p_hat_mean} evd "
                    f"{rep_e.p_hat_mean} (need 1.0); forecast errors "
                    f"{rep_r.fe:.6f} vs {rep_e.fe:.6f}, gap {gap:.2%} "
                    f"(need <=5%)")
    assert ok, line


# ------------------------------------------------------------------
# 9. error shrinks as the sample grows


def test_criterion_9_convergence_trend():
    means, ses = [], []
    for n in (200, 500, 2000):
        cfg = SimConfig(scenario="sim1", k=60, n=n, seed=9000,
                        lag_lo=1, lag_hi=5)
        rep = monte_carlo(cfg, trials=50, methods=("rrqr",),
                          outputs=("errors",), p_override=1, threads=THREADS)
        agg = rep["per_method"]["rrqr"]
        means.append(agg["error_mean"])
        ses.append(agg["error_std"] / math.sqrt(agg["trials_ok"]))
    ok = all(means[i + 1] < means[i] - ses[i] for i in range(2))
    detail = ("error means " +
              " > ".join(f"{m * 1e3:.2f}e-3(N={n})"
                         for m, n in zip(means, (200, 500, 2000))) +
              ", each drop exceeding one standard error" if ok else
              f"means {[round(m * 1e3, 2) for m in means]}e-3 "
              f"ses {[round(s * 1e3, 2) for s in ses]}e-3 not decreasing")
    line = _verdict(9, ok, detail)
    assert ok, line
