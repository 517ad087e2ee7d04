"""Eigendecomposition and PCA baselines."""

import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from numpy.testing import assert_allclose, assert_array_equal

import oracles
from oracles import sign_flip_panels
from qrfactors import baselines, covariance
from qrfactors.baselines import evd_spectrum, fit_evd, fit_pca
from qrfactors.covariance import build_augmented, sample_autocov
from qrfactors.factor_rrqr import fit_rrqr
from qrfactors.forecast_eval import fit_method
from qrfactors.simgen import SimConfig, gen_sim1, gen_sim2, subspace_error
from qrfactors.tsdata import TimeSeries


def _panel(seed, k=6, n=80):
    return TimeSeries(np.random.default_rng(seed).standard_normal((k, n)))


def test_s_is_the_augmented_gram_matrix():
    # S's eigenvalues are the squared singular values of the stacked
    # lag covariances
    ts = _panel(101)
    lam = evd_spectrum(ts, lag_lo=1, lag_hi=3).eigenvalues
    m = build_augmented(ts, lag_lo=1, lag_hi=3).matrix
    assert_allclose(lam, np.linalg.svd(m, compute_uv=False) ** 2, rtol=1e-10)


def test_s_is_symmetric_psd():
    # the eigenpairs rebuild a symmetric PSD matrix, S itself
    ts = _panel(102)
    spectrum = evd_spectrum(ts)
    u, lam = spectrum.eigenvectors, spectrum.eigenvalues
    s = (u * lam) @ u.T
    assert_allclose(s, s.T, atol=1e-14)
    assert lam.min() >= -1e-10 * lam.max()
    m = build_augmented(ts, lag_lo=1, lag_hi=2).matrix
    assert_allclose(s, m @ m.T, rtol=1e-10)


def _bench_shape_panels():
    """The bench's paper cell, rolling window and Monte-Carlo panels."""
    yield "paper-cell", gen_sim1(k=180, n=500, seed=0).y, 5
    yield "rolling", gen_sim1(k=50, n=500, seed=1).y, 2
    yield "montecarlo", gen_sim2(SimConfig(scenario="sim2", k=100, n=200,
                                           seed=2, noise_kind="hurst")).y, 2


def _eig_inputs():
    """Symmetric matrices for the eigen path: edge cases, then the EVD
    sum and the lag-0 covariance of a K > N panel and the bench shapes."""
    rng = np.random.default_rng(115)
    low = rng.standard_normal((8, 2))
    yield "zero", np.zeros((4, 4))
    yield "identity", np.eye(5)
    yield "tied eigenvalues", np.diag([2.0, 2.0, 1.0, 1.0, 1.0])
    # every eigenvector's entries tie in magnitude: the first one leads
    yield "tied entries", np.array([[1.0, 1.0], [1.0, 1.0]])
    yield "tied entries, negative", np.array([[2.0, -1.0], [-1.0, 2.0]])
    yield "rank-deficient", low @ low.T
    panels = [("K > N", _panel(116, k=30, n=12), 2), *_bench_shape_panels()]
    for name, ts, lag_hi in panels:
        covs = [sample_autocov(ts, lag) for lag in range(1, lag_hi + 1)]
        yield f"{name} evd", sum(c.scaled @ c.scaled.T for c in covs)
        yield f"{name} lag 0", sample_autocov(ts, 0).scaled


@pytest.mark.parametrize("name,s", list(_eig_inputs()),
                         ids=[name for name, _ in _eig_inputs()])
def test_sym_eig_desc_matches_the_column_loop(name, s):
    lam, u = baselines._sym_eig_desc(s)
    want_lam, want_u = oracles.sym_eig_desc(s)
    assert lam.tobytes() == want_lam.tobytes()
    assert u.tobytes() == want_u.tobytes()
    assert u.flags.c_contiguous


def test_spectrum_contract():
    ts = _panel(103)
    spectrum = evd_spectrum(ts)
    lam = spectrum.eigenvalues
    assert (np.diff(lam) <= 0).all() and (lam >= 0).all()
    u = spectrum.eigenvectors
    assert np.linalg.norm(u.T @ u - np.eye(u.shape[1])) <= 1e-10
    # each vector's largest-magnitude entry is positive
    for col in u.T:
        assert col[np.argmax(np.abs(col))] > 0
    want = lam[:-1] / lam[1:]
    assert_allclose(spectrum.ratios, want, rtol=1e-12)


@pytest.mark.parametrize("lam,ratios,p_hat", [
    # ratios 2, 50, 1.11 -> the gap after the second eigenvalue
    ([100.0, 50.0, 1.0, 0.9], [2.0, 50.0, 1.0 / 0.9], 2),
    # a zero tail: x/0 = inf wins, and 0/0 = 0 never does
    ([5.0, 0.0, 0.0], [np.inf, 0.0], 1),
], ids=["largest gap", "zero tail"])
def test_fit_evd_picks_the_first_largest_ratio(lam, ratios, p_hat,
                                               monkeypatch):
    k = len(lam)
    monkeypatch.setattr(baselines, "_sym_eig_desc",
                        lambda s: (np.array(lam), np.eye(k)))
    ts = _panel(109, k=k)
    assert_array_equal(evd_spectrum(ts).ratios, ratios)
    fit = fit_evd(ts)
    assert_array_equal(fit.scan.ratios(), ratios)
    assert fit.p_hat == fit.scan.p_hat == p_hat


def test_eigen_ratio_order_cap_validation(monkeypatch):
    # two eigenvalues have one ratio, so the cap is 1 at any N
    monkeypatch.setattr(baselines, "_sym_eig_desc",
                        lambda s: (np.array([3.0, 1.0]), np.eye(2)))
    ts = _panel(111, k=2)
    assert fit_evd(ts, 1, 2, p_cap=1).scan.p_cap == 1
    with pytest.raises(ValueError, match=r"p_cap must be in \[1, 1\]"):
        fit_evd(ts, 1, 2, p_cap=2)


def _noiseless_two_factor(seed, k=10, n=500):
    rng = np.random.default_rng(seed)
    h = rng.uniform(-2.0, 2.0, size=(k, 2))
    x = np.empty((2, n))
    innov = rng.standard_normal((2, n))
    x[:, 0] = innov[:, 0]
    for t in range(1, n):
        x[:, t] = 0.8 * x[:, t - 1] + innov[:, t]
    return TimeSeries(h @ x), h


def test_fit_evd_recovers_noiseless_span():
    ts, h = _noiseless_two_factor(104)
    fit = fit_evd(ts)
    assert fit.p_hat == 2
    assert subspace_error(fit.q_hat, np.linalg.qr(h)[0]) <= 1e-8


def test_fit_evd_and_fit_rrqr_agree_on_clean_data():
    ts, _ = _noiseless_two_factor(105)
    span_gap = subspace_error(fit_evd(ts).q_hat, fit_rrqr(ts).q_hat)
    assert span_gap <= 1e-8


def test_fit_evd_contract():
    data = gen_sim1(k=12, n=300, seed=106)
    fit = fit_evd(data.y)
    assert fit.method == "EVD"
    assert fit.p_hat == 1
    assert np.linalg.norm(fit.q_hat.T @ fit.q_hat - np.eye(1)) <= 1e-10
    assert fit.diagnostics["lambda_top"] >= fit.diagnostics["lambda_tail"]
    assert fit_evd(data.y, p_override=2).p_hat == 2


@pytest.mark.parametrize("p_override", [None, 2])
@pytest.mark.parametrize("p_cap", [None, 4])
def test_fit_evd_carries_its_ratio_curve(p_override, p_cap):
    data = gen_sim1(k=12, n=300, seed=108)
    fit = fit_evd(data.y, 1, 3, p_override=p_override, p_cap=p_cap)
    cap = 11 if p_cap is None else p_cap
    spectrum = evd_spectrum(data.y, 1, 3)
    assert fit.scan.p_cap == cap
    assert fit.scan.epsilon == 0.0
    assert_allclose(fit.scan.ratios(), spectrum.ratios[:cap], rtol=0, atol=0)
    assert fit.scan.p_hat == int(np.argmax(spectrum.ratios[:cap])) + 1
    assert fit.p_hat == (fit.scan.p_hat if p_override is None else p_override)


@pytest.mark.parametrize("method", ["evd", "pca"])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(sign_flip_panels())
def test_fit_is_sign_flip_equivariant(method, case):
    # y -> Dy, D = diag(d) of +-1, turns S into D S D and the lag-0
    # covariance C into D C D: every eigenvalue, ratio and diagnostic is
    # the same bit for bit, |q_hat| too, and the factor paths are the same
    # up to q_hat's column signs (each product is exact under a flip)
    y, lag_hi, d = case
    base = fit_method(method, TimeSeries(y), 1, lag_hi)
    fit = fit_method(method, TimeSeries(d[:, None] * y), 1, lag_hi)
    event(f"p_hat {base.p_hat}")
    assert fit.p_hat == base.p_hat
    assert fit.scan == base.scan
    assert fit.diagnostics == base.diagnostics
    assert_array_equal(np.abs(fit.q_hat), np.abs(base.q_hat))
    flipped = d[:, None] * base.q_hat
    top = np.abs(flipped).argmax(axis=0)
    cols = np.arange(base.p_hat)
    s = np.sign(fit.q_hat[top, cols] * flipped[top, cols])
    assert_array_equal(fit.factors, s[:, None] * base.factors)


def _eigenspace_bound(method, ts, lag_hi, p):
    """A bound on the distance between the rank-p eigenbases of the
    matrix a fit decomposes, S = sum_l C(l) C(l)^T (evd) or C(0) (pca),
    of a panel and of the panel with its series permuted, both computed.

    The two runs' covariances are the same dot products, each within
    lag_product_rounding of its exact value (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., 3.1). With u = eps/2,
    per run:

    * evd: S's products C C^T and their sum add (K + m) u ||M||_F^2
      (Higham 3.5), M the m lag blocks side by side, and C's rounding dC
      enters through 2 ||M||_F ||dC||_F, by Cauchy-Schwarz over blocks;
    * the symmetrization (S + S^T) / 2 adds u ||S||_F, and eigh, a
      backward stable symmetric eigensolver, c K u ||S|| (Golub and Van
      Loan, *Matrix Computations*, 4th ed., 8.3), taken as 4 K u ||S||_F.

    So the two S differ by dS <= twice their sum, and the top-p
    eigenspaces by at most 2 dS / (lambda_p - lambda_{p+1}) (Davis and
    Kahan's sin theta theorem, doubled for dS up to half the gap), plus
    8 K u for the eigenvectors' departure from orthonormality and
    subspace_error's rounding. 1 where the gap cannot carry it.
    """
    u = np.finfo(float).eps / 2
    z = ts._normalized[0]
    lags = range(1, lag_hi + 1) if method == "evd" else [0]
    m = covariance._lag_products(z, lags)
    dc = oracles.lag_product_rounding(z, m, lags)
    norm_m = float(np.linalg.norm(m))
    if method == "evd":
        s = m @ m.T
        ds = 2 * norm_m * dc + (ts.K + len(lags)) * u * norm_m ** 2
    else:
        s, ds = m, dc
    ds = 2 * (ds + (1 + 4 * ts.K) * u * float(np.linalg.norm(s)))
    lam = np.linalg.eigvalsh(s)[::-1]
    gap = lam[p - 1] - lam[p]
    return 2 * ds / gap + 8 * ts.K * u if 2 * ds < gap else 1.0


@pytest.mark.parametrize("method", ["evd", "pca"])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(oracles.permuted_panels())
def test_fit_is_series_permutation_equivariant(method, case):
    # y -> Py turns S into P S P^T up to rounding: p_hat is the same, and
    # the spans within _eigenspace_bound of each other
    y, lag_hi, perm = case
    ts = TimeSeries(y)
    base = fit_method(method, ts, 1, lag_hi)
    fit = fit_method(method, TimeSeries(y[perm]), 1, lag_hi)
    event(f"p_hat {base.p_hat}")
    assert fit.p_hat == base.p_hat
    assert subspace_error(fit.q_hat, base.q_hat[perm]) \
        <= _eigenspace_bound(method, ts, lag_hi, base.p_hat)


def test_fit_evd_scale_invariance():
    data = gen_sim1(k=10, n=250, seed=107)
    base = fit_evd(data.y)
    for c in (1e-3, 1e4):
        scaled = fit_evd(TimeSeries(c * data.y.values))
        assert scaled.p_hat == base.p_hat
        assert_allclose(scaled.q_hat, base.q_hat, atol=1e-8)


def test_fit_evd_default_cap_stays_below_full_rank():
    # the sample matrix has rank at most min(K, N-1) = 11 here; the
    # ratio past it is x/0 = inf and would win unconditionally
    ts = _panel(0, k=30, n=12)
    fit = fit_evd(ts, 1, 2)
    assert fit.scan.p_cap == 10
    assert fit.p_hat <= 10
    assert np.isfinite(fit.scan.ratios()).all()
    with pytest.raises(ValueError, match=r"p_cap must be in \[1, 10\]"):
        fit_evd(ts, 1, 2, p_cap=11)


@pytest.mark.parametrize("k,n", [(20, 200), (180, 500)])
@pytest.mark.parametrize("scale", [1e-200, 1e-100, 1e100])
def test_fit_evd_fits_at_out_of_range_scales(k, n, scale):
    # the raw lag covariances squared under- or overflow (at 1e-200 every
    # one is exactly 0); the fit reads the normalized panel, and only the
    # eigenvalues, whose true values leave the float range, saturate
    values = gen_sim1(k=k, n=n, seed=0).y.values
    base = fit_evd(TimeSeries(values), lag_lo=1, lag_hi=5)
    fit = fit_evd(TimeSeries(scale * values), lag_lo=1, lag_hi=5)
    assert fit.p_hat == base.p_hat
    assert subspace_error(fit.q_hat, base.q_hat) <= 1e-10
    assert_allclose(fit.scan.ratios(), base.scan.ratios(), rtol=1e-10)
    assert fit.diagnostics["lambda_top"] == (0.0 if scale < 1 else math.inf)


# ------------------------------------------------------------------
# information-criterion PCA


def _ic(ts, p):
    """The information criterion at rank p, as fit_pca reports it."""
    return fit_pca(ts, p_override=p).diagnostics["ic"]


def test_ic_penalty_arithmetic():
    ts = _panel(108, k=5, n=50)
    lam = np.linalg.eigvalsh(sample_autocov(ts, 0).matrix)[::-1]
    for p in (1, 3):
        v = lam[p:].sum() / 5
        penalty = p * ((5 + 50) / (5 * 50)) * math.log(5 * 50 / (5 + 50))
        assert_allclose(_ic(ts, p), math.log(v) + penalty, rtol=1e-12)


def test_ic_perfect_fit_is_minus_infinity():
    ts = _panel(109, k=4, n=60)
    assert _ic(ts, 4) == float("-inf")


def test_ic_p_bounds():
    ts = _panel(110, k=4, n=60)
    with pytest.raises(ValueError, match=r"p_override must be in \[1, 4\]"):
        _ic(ts, 0)
    with pytest.raises(ValueError, match=r"p_override must be in \[1, 4\]"):
        _ic(ts, 5)


def test_fit_pca_sigma2_is_trailing_eigen_sum():
    ts = _panel(111, k=8, n=120)
    fit = fit_pca(ts)
    lam = np.linalg.eigvalsh(sample_autocov(ts, 0).matrix)[::-1]
    assert_allclose(fit.diagnostics["sigma2_hat"], lam[fit.p_hat:].sum(),
                    rtol=1e-10)
    # the scanned fit's criterion is the pinned fit's at its rank
    assert fit.diagnostics["ic"] == _ic(ts, fit.p_hat)


def test_fit_pca_default_cap_stays_below_full_rank():
    # at full rank the criterion is -inf and would win unconditionally;
    # the demeaned panel's rank is at most min(K, N-1)
    ts = _panel(112, k=5, n=30)
    assert fit_pca(ts).p_hat <= 4
    fit = fit_pca(_panel(112, k=50, n=20))
    assert fit.p_hat <= 18
    assert math.isfinite(fit.diagnostics["ic"])


@pytest.mark.parametrize("scale", [1e-200, 1e160])
def test_fit_pca_fits_at_out_of_range_scales(scale):
    # the raw lag-0 covariance under- or overflows here; the fit reads the
    # normalized panel, sigma2_hat saturates with its true value, and the
    # criterion moves by exactly the log of the squared scale
    values = gen_sim1(k=20, n=200, seed=0).y.values
    base = fit_pca(TimeSeries(values))
    fit = fit_pca(TimeSeries(scale * values))
    assert fit.p_hat == base.p_hat
    assert subspace_error(fit.q_hat, base.q_hat) <= 1e-10
    assert fit.diagnostics["sigma2_hat"] == (0.0 if scale < 1 else math.inf)
    assert_allclose(fit.diagnostics["ic"],
                    base.diagnostics["ic"] + 2 * math.log(scale), atol=1e-9)


@pytest.mark.parametrize("scale", [1e-150, 1e150])
def test_fit_pca_fits_at_extreme_scales(scale):
    values = gen_sim1(k=20, n=200, seed=0).y.values
    base = fit_pca(TimeSeries(values))
    fit = fit_pca(TimeSeries(scale * values))
    assert fit.p_hat == base.p_hat
    assert subspace_error(fit.q_hat, base.q_hat) <= 1e-10


def test_fit_pca_strong_factor():
    # factor variance dwarfs the noise so the top eigenvector pins the span
    rng = np.random.default_rng(113)
    h = rng.uniform(-2.0, 2.0, size=(60, 1))
    x = 50.0 * rng.standard_normal((1, 2000))
    y = TimeSeries(h @ x + 0.1 * rng.standard_normal((60, 2000)))
    fit = fit_pca(y)
    assert fit.p_hat == 1
    assert subspace_error(fit.q_hat, h / np.linalg.norm(h)) <= 1e-3


def test_fit_pca_override_and_validation():
    ts = _panel(114, k=6, n=40)
    assert fit_pca(ts, p_override=3).p_hat == 3
    with pytest.raises(ValueError):
        fit_pca(ts, p_max=0)
    with pytest.raises(ValueError):
        fit_pca(ts, p_max=6)
    with pytest.raises(ValueError):
        fit_pca(ts, p_max=7)
    with pytest.raises(ValueError):
        fit_pca(ts, p_override=7)
