"""Output checks for the benchmark workloads.

Every check compares a program output against a numpy computation made
here from the raw panel, or against a property the method must have.
None compares against a stored copy of an earlier output. Each check
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# Relative tolerance for identities that hold up to round-off.
IDENTITY_TOL = 1e-10
# Span tolerance for the EVD loading against numpy's eigh: the top
# eigengap of the paper cell is large, so both solvers agree far below it.
EIG_SPAN_TOL = 1e-8
# Distance from the true loading span. At K=180, N=500, lags 1..5, 200
# seeded panels give at most 0.023 for rrqr and 0.025 for evd; 100
# K=50, N=500 windows at lags 1..2 give at most 0.025.
TRUTH_BOUND = 0.05
# Exact-rank panel: the recovered span matches the true one to this.
EXACT_SPAN_TOL = 1e-8
EXACT_R22_RTOL = 1e-10
# The program's default rank cap, which fit_evd's ratio rule searches.
RANK_CAP = 15
# Rolling forecast error as a share of the oracle one-step predictor's,
# as the workloads roll. Over 200 seeds evd and pca give 0.996-1.023 on
# rolling (400 targets), 0.968-1.101 on paper-cell (one refit, 50
# targets) and 0.997-1.132 on montecarlo (sim2, 200 targets); rrqr on 30
# more seeds stays inside the same ranges.
ORACLE_BAND = (0.97, 1.05)
ORACLE_BAND_SHORT = (0.90, 1.15)
ORACLE_BAND_SIM2 = (0.95, 1.25)
# rrqr and evd rolling errors agree within this share (criterion 8).
ROLL_PARITY = 0.05
# Monte-Carlo report: share of trials in which rrqr and evd must find the
# true p, and the bound on their mean subspace error. On criterion 2's
# correlated-noise cell 300 trials give rrqr 100% and evd 98% at p=2,
# mean errors 0.027 and 0.044, and pca medians of 24-27; sim1 errors are
# about 0.02.
SIM_P_SHARE = 0.90
SIM_ERROR_BOUND = 0.15


@dataclass(frozen=True)
class SimExpectation:
    """What a sim report must show: the true factor count p, and the
    floor on pca's median p_hat (None: no floor)."""

    p: int
    pca_median_min: int | None


def projector_distance(a, b) -> float:
    """Spectral-norm distance between the column spans of a and b."""
    qa, qb = (np.linalg.qr(np.asarray(m, dtype=float).reshape(len(m), -1))[0]
              for m in (a, b))
    return float(np.linalg.norm(qa @ qa.T - qb @ qb.T, 2))


class PanelReference:
    """numpy-only quantities of one panel that the fit checks compare to."""

    def __init__(self, y: np.ndarray, lag_lo: int, lag_hi: int):
        k, n = y.shape
        self.y = y
        self.centered = y - y.mean(axis=1, keepdims=True)
        yc = self.centered
        self.m_tilde = np.hstack([yc[:, l:] @ yc[:, :n - l].T / (n - l)
                                  for l in range(lag_lo, lag_hi + 1)])
        norms = np.linalg.norm(self.m_tilde, axis=0)
        self.top_column = self.m_tilde[:, int(np.argmax(norms))]
        self.epsilon = float(norms.max()) / math.sqrt(k * n)
        self.svals = np.linalg.svd(self.m_tilde, compute_uv=False)
        lam, vecs = np.linalg.eigh(self.m_tilde @ self.m_tilde.T)
        self.evd_values = lam[::-1]
        self.evd_vectors = vecs[:, ::-1]
        lam0, vecs0 = np.linalg.eigh(yc @ yc.T / n)
        self.lag0_values = lam0[::-1]
        self.lag0_vectors = vecs0[:, ::-1]


def check_fit_identities(fit, ref: PanelReference) -> list[str]:
    """q_hat is orthonormal and factors = q_hat^T (y - ybar)."""
    problems = []
    q = np.asarray(fit.q_hat)
    defect = float(np.abs(q.T @ q - np.eye(q.shape[1])).max())
    if defect > IDENTITY_TOL:
        problems.append(f"{fit.method}: q_hat orthonormality defect {defect:.2e}")
    expect = q.T @ ref.centered
    gap = float(np.linalg.norm(np.asarray(fit.factors) - expect))
    scale = max(float(np.linalg.norm(expect)), 1e-300)
    if gap > IDENTITY_TOL * scale:
        problems.append(f"{fit.method}: factors differ from q_hat^T(y - ybar) "
                        f"by {gap / scale:.2e} relative")
    return problems


def check_rrqr(fit, ref: PanelReference) -> list[str]:
    """Properties of the pivoted-QR fit: the scan's epsilon and argmax,
    the hybrid lower bound on sigma_min(R11), and at p=1 the RRQR
    estimator itself, the normalized largest-norm column of M~."""
    problems = []
    eps = fit.scan.epsilon
    if abs(eps - ref.epsilon) > IDENTITY_TOL * ref.epsilon:
        problems.append(f"scan epsilon {eps!r}, numpy gives {ref.epsilon!r}")
    ratios = fit.scan.ratios()
    if int(np.argmax(ratios)) + 1 != fit.p_hat:
        problems.append(f"rrqr p_hat {fit.p_hat} is not the argmax of ratios "
                        f"{np.round(ratios, 3).tolist()}")
    p = fit.p_hat
    ncols = ref.m_tilde.shape[1]
    bound = ref.svals[p - 1] / math.sqrt(p * (ncols - p + 1))
    if fit.diagnostics["r11_min_sv"] < bound * (1.0 - 1e-8):
        problems.append(f"r11_min_sv {fit.diagnostics['r11_min_sv']:.6g} below "
                        f"the hybrid bound {bound:.6g}")
    if p == 1:
        dist = projector_distance(fit.q_hat, ref.top_column)
        if dist > IDENTITY_TOL:
            problems.append(f"rrqr loading is {dist:.2e} off the largest-norm "
                            "column of M~")
    return problems


def check_evd(fit, ref: PanelReference) -> list[str]:
    """p_hat is the argmax of numpy's eigenvalue ratios of M~ M~^T over
    the default cap, and the loading spans the top eigenvectors."""
    problems = []
    k = ref.y.shape[0]
    lam = ref.evd_values[:min(k - 1, RANK_CAP) + 1]
    ratios = lam[:-1] / lam[1:]
    if not 1 <= fit.p_hat <= ratios.size or \
            ratios[fit.p_hat - 1] < ratios.max() * (1.0 - 1e-8):
        problems.append(f"evd p_hat {fit.p_hat}, numpy's eigenvalue ratios "
                        f"peak at {int(np.argmax(ratios)) + 1}")
    dist = projector_distance(fit.q_hat, ref.evd_vectors[:, :fit.p_hat])
    if dist > EIG_SPAN_TOL:
        problems.append(f"evd loading is {dist:.2e} off the top eigenvectors "
                        "of M~ M~^T")
    return problems


def bai_ng_scores(ref: PanelReference) -> np.ndarray:
    """Bai-Ng criterion at p = 1..min(min(K, N) - 1, 40)."""
    k, n = ref.y.shape
    lam = ref.lag0_values
    p_max = min(min(k, n) - 1, 40)  # fit_pca's default search limit
    penalty = ((k + n) / (k * n)) * math.log(k * n / (k + n))
    return np.array([math.log(lam[p:].sum() / k) + p * penalty
                     for p in range(1, p_max + 1)])


def check_pca(fit, ref: PanelReference) -> list[str]:
    scores = bai_ng_scores(ref)
    best = int(np.argmin(scores)) + 1
    p = fit.p_hat
    tie = 1e-12 * abs(scores.min())
    if not 1 <= p <= scores.size or scores[p - 1] > scores.min() + tie:
        return [f"pca p_hat {p}, the Bai-Ng argmin is {best}"]
    dist = projector_distance(fit.q_hat, ref.lag0_vectors[:, :p])
    if dist > EIG_SPAN_TOL:
        return [f"pca loading is {dist:.2e} off the top lag-0 eigenvectors"]
    return []


def check_truth(fit, truth, bound: float) -> list[str]:
    dist = projector_distance(fit.q_hat, truth)
    if dist > bound:
        return [f"{fit.method} loading is {dist:.4f} from the true span "
                f"(bound {bound})"]
    return []


def check_exact(fit, ref: PanelReference, truth) -> list[str]:
    """rrqr on a noise-free panel whose rank is the width of `truth`."""
    rank = truth.shape[1]
    if fit.p_hat != rank:
        return [f"exact-rank rrqr p_hat {fit.p_hat}, expected {rank}"]
    problems = []
    dist = projector_distance(fit.q_hat, truth)
    if dist > EXACT_SPAN_TOL:
        problems.append(f"exact-rank loading is {dist:.2e} off the true span")
    r22 = fit.diagnostics["r22_max_sv"]
    if r22 > EXACT_R22_RTOL * ref.svals[0]:
        problems.append(f"exact-rank r22_max_sv {r22:.3e} above "
                        f"{EXACT_R22_RTOL} * sigma_1 = "
                        f"{EXACT_R22_RTOL * ref.svals[0]:.3e}")
    return problems


def oracle_forecast_error(y, predictions, first_target: int) -> float:
    """Mean scaled one-step error, over the targets from first_target on,
    of the predictor that knows the true model: `predictions` holds the
    conditional mean of each y_t given the past."""
    resid = y[:, first_target:] - predictions[:, first_target:]
    return float(np.linalg.norm(resid, axis=0).mean() / math.sqrt(y.shape[0]))


def check_roll(method: str, report: dict, window_p_hats: list[int],
               oracle_fe: float, band: tuple[float, float],
               expect_p: int | None) -> list[str]:
    problems = []
    if expect_p is not None and any(p != expect_p for p in window_p_hats):
        problems.append(f"roll {method}: window p_hat values "
                        f"{sorted(set(window_p_hats))}, expected all {expect_p}")
    if report["p_hat_mean"] != float(np.mean(window_p_hats)):
        problems.append(f"roll {method}: p_hat_mean {report['p_hat_mean']} is "
                        "not the mean of per_window.csv")
    lo, hi = band
    share = report["fe"] / oracle_fe
    if not lo <= share <= hi:
        problems.append(f"roll {method}: fe {report['fe']:.6f} is {share:.4f} "
                        f"of the oracle's {oracle_fe:.6f} (band {lo}-{hi})")
    return problems


def check_roll_parity(fe_rrqr: float, fe_evd: float) -> list[str]:
    gap = abs(fe_rrqr - fe_evd) / fe_evd
    if not gap <= ROLL_PARITY:
        return [f"roll rrqr fe {fe_rrqr:.6f} and evd fe {fe_evd:.6f} differ "
                f"by {gap:.2%}"]
    return []


def report_body(payload: dict) -> str:
    """The sim report with the manifest timestamp taken out, as canonical
    JSON text, so equal strings mean bit-identical floats."""
    body = json.loads(json.dumps(payload))
    body.get("manifest", {}).pop("created_utc", None)
    return json.dumps(body, sort_keys=True)


def check_sim_report(payload: dict, trials: int,
                     expect: SimExpectation) -> list[str]:
    report = payload["report"]
    problems = []
    if report["failures"]:
        problems.append(f"sim: {len(report['failures'])} trial failures, "
                        f"first {report['failures'][0]}")
    per = report["per_method"]
    for method in ("rrqr", "evd", "pca"):
        ok = per.get(method, {}).get("trials_ok")
        if ok != trials:
            problems.append(f"sim {method}: trials_ok {ok} of {trials}")
    if problems:
        return problems
    for method in ("rrqr", "evd"):
        agg = per[method]
        share = agg["p_hat_counts"].get(str(expect.p), 0) / trials
        if share < SIM_P_SHARE:
            problems.append(f"sim {method}: p={expect.p} in {share:.0%} of trials")
        peak = int(np.argmax(agg["ratio_mean"])) + 1
        if peak != expect.p:
            problems.append(f"sim {method}: ratio_mean peaks at i={peak}")
        if not agg["error_mean"] < SIM_ERROR_BOUND:
            problems.append(f"sim {method}: error_mean {agg['error_mean']:.4f} "
                            f"not under {SIM_ERROR_BOUND}")
    floor = expect.pca_median_min
    if floor is not None and per["pca"]["p_hat_median"] < floor:
        problems.append(f"sim pca: median p_hat {per['pca']['p_hat_median']} "
                        f"below {floor}")
    return problems
