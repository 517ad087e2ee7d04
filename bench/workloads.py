"""The three benchmark workloads: inputs, operations and their checks.

Every workload runs every operation kind on its own input, so each
end-to-end metric is measured on each workload:

- fit_rrqr_s, fit_evd_s, fit_pca_s: one fit of the workload's panel;
- fit_rrqr_exact_s: fit_rrqr on a noise-free panel of exact rank and
  the same shape;
- roll_rrqr_s, roll_evd_s, roll_pca_s: one ``qrfactors roll`` call;
- sim_trial_s: one ``qrfactors sim`` call divided by its trial count.

Each workload is a closed loop: one caller, and each operation starts
only after the previous one ends. A round is one pass over the
workload's operations, and every round runs the same operations on the
same inputs. Panels and their truth come from this module's numpy code;
``qrfactors sim`` draws its own panels from the seed it is given.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import qrfactors as qf
import qrfactors.cli
from scipy.signal import lfilter

import checks

SIM1_AR = 0.9
SIM1_STD = 2.0  # factor innovations and noise both have variance 4
SIM2_MA = 0.5
HURST_W, HURST_SCALE = 0.6, 0.1
BURN_IN = 1000
SIM_OUTPUTS = "errors,ratios,rmse,forecast"


@dataclass
class Operation:
    """One timed call. `run` is timed; `check` turns its return value
    (or the files it wrote) into a list of problems. The call is made `repeat` times in a row in every
    round, and its time is divided by `per` (trials per sim call)."""

    metric: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    repeat: int = 1
    per: int = 1


# ---------------------------------------------------------------------------
# inputs


def ar1_path(rng, n: int, coeff: float) -> np.ndarray:
    eta = SIM1_STD * rng.standard_normal(BURN_IN + n)
    return lfilter([1.0], [1.0, -coeff], eta)[BURN_IN:]


def sim1_panel(rng, k: int, n: int):
    """sim1 model: loading 2cos(2 pi i/K), AR(1) factor with coefficient
    0.9 and innovation variance 4, noise variance 4. Draw order: factor
    innovations, then noise. Returns (y, loading, oracle predictions),
    column t of the last being the true conditional mean of y_t."""
    x = ar1_path(rng, n, SIM1_AR)
    h = 2.0 * np.cos(2.0 * np.pi * np.arange(1, k + 1) / k)
    y = np.outer(h, x) + SIM1_STD * rng.standard_normal((k, n))
    oracle = np.outer(h, SIM1_AR * np.concatenate([[0.0], x[:-1]]))
    return y, h, oracle


def exact_sim1_panel(rng, k: int, n: int):
    """Noise-free panel of exact rank 3: loadings 2cos(2 pi i/K),
    2sin(2 pi i/K), 2cos(4 pi i/K) on AR(1) factors with coefficients
    0.9, 0.8, 0.7 and innovation variance 4. Returns (y, loadings)."""
    i = np.arange(1, k + 1)
    h = 2.0 * np.column_stack([np.cos(2 * np.pi * i / k),
                               np.sin(2 * np.pi * i / k),
                               np.cos(4 * np.pi * i / k)])
    x = np.vstack([ar1_path(rng, n, c) for c in (0.9, 0.8, 0.7)])
    return h @ x, h


def fbm_root(k: int) -> np.ndarray:
    """Symmetric root of the sim2 correlated-noise covariance: the
    fractional-Brownian covariance with Hurst 0.6 on the grid 1/k..1,
    times 0.1."""
    s = np.arange(1, k + 1) / k
    lo, hi = np.minimum.outer(s, s), np.maximum.outer(s, s)
    w2 = 2 * HURST_W
    cov = HURST_SCALE * 0.5 * (lo ** w2 - (hi - lo) ** w2 + hi ** w2)
    lam, u = np.linalg.eigh(cov)
    return (u * np.sqrt(np.clip(lam, 0.0, None))) @ u.T


def sim2_panel(rng, k: int, n: int):
    """sim2 model with correlated noise: factors e_t + 0.5 e_{t-1} and
    e_t + 0.5 e_{t-2} on unit-normal innovations, loadings U(-4, 4), the
    second on the first K/2 series only. Draw order: innovations 1 and
    2, loadings 1 and 2, noise. Returns (y, loadings, signal, oracle
    predictions); signal is the noise-free common component."""
    e1 = rng.standard_normal(n + 1)
    e2 = rng.standard_normal(n + 2)
    h = np.zeros((k, 2))
    h[:, 0] = rng.uniform(-4.0, 4.0, k)
    h[:k // 2, 1] = rng.uniform(-4.0, 4.0, k // 2)
    noise = fbm_root(k) @ rng.standard_normal((k, n))
    x = np.vstack([e1[1:] + SIM2_MA * e1[:-1], e2[2:] + SIM2_MA * e2[:-2]])
    oracle = h @ np.vstack([SIM2_MA * e1[:n], SIM2_MA * e2[:n]])
    return h @ x + noise, h, h @ x, oracle


def write_csv(path: Path, y: np.ndarray) -> Path:
    np.savetxt(path, y, delimiter=",", fmt="%.17g")  # exact round trip
    return path


# ---------------------------------------------------------------------------
# operations shared by the workloads


def fit_operations(y, lag_hi: int, expect_p: int | None, truth,
                   repeats: tuple[int, int, int]) -> list[Operation]:
    """fit_rrqr, fit_evd and fit_pca on one panel. With expect_p the
    rrqr and evd ranks must equal it, and with truth their loadings must
    lie within checks.TRUTH_BOUND of its span."""
    ts = qf.TimeSeries(y)
    ref = checks.PanelReference(y, 1, lag_hi)

    def model_checks(fit):
        problems = []
        if expect_p is not None and fit.p_hat != expect_p:
            problems.append(f"{fit.method} p_hat {fit.p_hat}, expected {expect_p}")
        elif truth is not None:
            problems += checks.check_truth(fit, truth, checks.TRUTH_BOUND)
        return problems

    return [
        Operation("fit_rrqr_s", lambda: qf.fit_rrqr(ts, 1, lag_hi),
                  lambda f: (checks.check_fit_identities(f, ref)
                             + checks.check_rrqr(f, ref) + model_checks(f)),
                  repeats[0]),
        Operation("fit_evd_s", lambda: qf.fit_evd(ts, 1, lag_hi),
                  lambda f: (checks.check_fit_identities(f, ref)
                             + checks.check_evd(f, ref) + model_checks(f)),
                  repeats[1]),
        Operation("fit_pca_s", lambda: qf.fit_pca(ts),
                  lambda f: (checks.check_fit_identities(f, ref)
                             + checks.check_pca(f, ref)),
                  repeats[2]),
    ]


def exact_operation(y, lag_hi: int, truth, repeat: int) -> Operation:
    ts = qf.TimeSeries(y)
    ref = checks.PanelReference(y, 1, lag_hi)
    return Operation("fit_rrqr_exact_s", lambda: qf.fit_rrqr(ts, 1, lag_hi),
                     lambda f: (checks.check_fit_identities(f, ref)
                                + checks.check_exact(f, ref, truth)), repeat)


class Workload:
    """Inputs are made in __init__ and warm_up; both count as set-up."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.count = lambda name, value: None  # set by a traced run
        rng = np.random.default_rng([seed, 1])
        self.warm_y = sim1_panel(rng, 20, 300)[0]
        self.warm_exact = exact_sim1_panel(rng, 20, 200)[0]
        self.warm_csv = write_csv(workdir / "warm.csv", self.warm_y)

    def cli(self, argv: list[str]) -> None:
        """Call qrfactors' command line in-process; count the bytes of
        the files it reports writing."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = qrfactors.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"qrfactors {argv[0]} exited with {code}")
        self.count("cli.main.bytes_written",
                   sum(os.path.getsize(p) for p in out.getvalue().split()))

    def warm_up(self) -> None:
        """One call of every operation kind on a small panel."""
        ts = qf.TimeSeries(self.warm_y)
        for fit in (qf.fit_rrqr, qf.fit_evd, qf.fit_pca):
            fit(ts)
        qf.fit_rrqr(qf.TimeSeries(self.warm_exact))
        for method in ("rrqr", "evd", "pca"):
            self.cli(["roll", "--data", str(self.warm_csv), "--method", method,
                      "--window", "150", "--eval-len", "20",
                      "--outdir", str(self.workdir / "warm")])
        self.cli(["sim", "--scenario", self.SCENARIO, "--k", "20", "--n", "100",
                  "--trials", "1", "--threads", "1", "--methods", "rrqr,evd,pca",
                  "--outputs", SIM_OUTPUTS, "--outdir", str(self.workdir / "warm")])

    def roll_operations(self, csv_path: Path, flags: list[str], oracle: float,
                        band: tuple[float, float], expect_p: int | None,
                        repeats: tuple[int, int, int]) -> list[Operation]:
        """`qrfactors roll` once per method on one CSV panel. Each fe must
        lie within band times the oracle's error. With expect_p, every
        window's rrqr and evd rank must equal it, and rrqr's and evd's fe
        must agree within checks.ROLL_PARITY (criterion 8)."""
        last_fe = {}

        def run(method):
            self.cli(["roll", "--data", str(csv_path), "--method", method,
                      "--outdir", str(self.workdir / f"roll-{method}")] + flags)

        def check_for(method):
            def check(_):
                outdir = self.workdir / f"roll-{method}"
                with open(outdir / "roll_report.json", encoding="utf-8") as fh:
                    report = json.load(fh)["report"]
                with open(outdir / "per_window.csv", newline="", encoding="utf-8") as fh:
                    p_hats = [int(row["p_hat"]) for row in csv.DictReader(fh)]
                last_fe[method] = report["fe"]
                problems = checks.check_roll(method, report, p_hats, oracle, band,
                                             expect_p if method != "pca" else None)
                # parity is checked once both methods have reported
                if (expect_p is not None and method != "pca"
                        and {"rrqr", "evd"} <= last_fe.keys()):
                    problems += checks.check_roll_parity(last_fe["rrqr"],
                                                         last_fe["evd"])
                return problems
            return check

        return [Operation(f"roll_{m}_s", lambda m=m: run(m), check_for(m), r)
                for m, r in zip(("rrqr", "evd", "pca"), repeats)]

    def sim_operation(self, flags: list[str], trials: int,
                      expect: checks.SimExpectation, repeat: int) -> Operation:
        """`qrfactors sim` with all three methods and all four outputs.
        Besides the report checks, every report body of a run must be
        bit-identical to its first, apart from the manifest timestamp."""
        outdir = self.workdir / "sim"
        argv = (["sim", "--scenario", self.SCENARIO, "--trials", str(trials),
                 "--seed", str(self.seed), "--methods", "rrqr,evd,pca",
                 "--outputs", SIM_OUTPUTS, "--threads", "1",
                 "--outdir", str(outdir)] + flags)
        first_body = []

        def check(_):
            with open(outdir / "sim_report.json", encoding="utf-8") as fh:
                payload = json.load(fh)
            problems = checks.check_sim_report(payload, trials, expect)
            body = checks.report_body(payload)
            if not first_body:
                first_body.append(body)
            elif body != first_body[0]:
                problems.append("sim report body differs from the run's first")
            return problems

        return Operation("sim_trial_s", lambda: self.cli(argv), check, repeat,
                         per=trials)


# ---------------------------------------------------------------------------
# the workloads


class PaperCell(Workload):
    """The paper's largest cell: sim1 at K=180, N=500, lags 1..5. The
    fits are the focus; roll makes one refit and sim one trial."""

    SCENARIO = "sim1"
    K, N, LAGS, ROLL_WINDOW, ROLL_EVAL = 180, 500, 5, 450, 50

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng = np.random.default_rng([seed, 0])
        self.y, self.h, self.oracle = sim1_panel(rng, self.K, self.N)
        self.exact, self.exact_h = exact_sim1_panel(rng, self.K, self.N)
        self.csv = write_csv(workdir / "panel.csv", self.y)

    def operations(self) -> list[Operation]:
        first = self.N - self.ROLL_EVAL
        roll_flags = ["--m", str(self.LAGS), "--window", str(self.ROLL_WINDOW),
                      "--stride", str(self.ROLL_EVAL),
                      "--eval-len", str(self.ROLL_EVAL), "--ar", "10"]
        return (fit_operations(self.y, self.LAGS, 1, self.h, (2, 20, 20))
                + [exact_operation(self.exact, self.LAGS, self.exact_h, 2)]
                + self.roll_operations(
                    self.csv, roll_flags,
                    checks.oracle_forecast_error(self.y, self.oracle, first),
                    checks.ORACLE_BAND_SHORT, 1, (1, 6, 6))
                + [self.sim_operation(
                    ["--k", str(self.K), "--n", str(self.N), "--m", str(self.LAGS)],
                    1, checks.SimExpectation(p=1, pca_median_min=None), 2)])


class Rolling(Workload):
    """S&P-style use: sim1 at K=50, N=1000, rolled with window 500,
    stride 10, AR(10) and 400 targets. The fits and the exact-rank fit
    are one refit's panel shape (50 x 500, lags 1..2); sim runs trials
    of that shape."""

    SCENARIO = "sim1"
    K, N, WINDOW, EVAL = 50, 1000, 500, 400

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng = np.random.default_rng([seed, 0])
        self.y, self.h, self.oracle = sim1_panel(rng, self.K, self.N)
        self.exact, self.exact_h = exact_sim1_panel(rng, self.K, self.WINDOW)
        self.csv = write_csv(workdir / "panel.csv", self.y)

    def operations(self) -> list[Operation]:
        first = self.N - self.EVAL
        roll_flags = ["--window", str(self.WINDOW), "--stride", "10",
                      "--eval-len", str(self.EVAL), "--ar", "10"]
        return (self.roll_operations(
                    self.csv, roll_flags,
                    checks.oracle_forecast_error(self.y, self.oracle, first),
                    checks.ORACLE_BAND, 1, (1, 2, 2))
                + fit_operations(self.y[:, -self.WINDOW:], 2, 1, self.h, (6, 50, 50))
                + [exact_operation(self.exact, 2, self.exact_h, 3),
                   self.sim_operation(["--k", str(self.K), "--n", str(self.WINDOW)], 4,
                                      checks.SimExpectation(p=1, pca_median_min=None),
                                      2)])


class MonteCarlo(Workload):
    """The paper's simulation study: `qrfactors sim` on acceptance
    criterion 2's correlated-noise cell (sim2, K=100, N=200, Hurst noise,
    lags 1..2). The fits and the exact-rank fit use one panel of that
    cell; roll runs on a 400-sample panel of the same model."""

    SCENARIO = "sim2"
    K, N, TRIALS, ROLL_N, ROLL_WINDOW = 100, 200, 50, 400, 200

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng = np.random.default_rng([seed, 0])
        self.y, self.exact_h, self.exact, _ = sim2_panel(rng, self.K, self.N)
        self.roll_y, _, _, self.roll_oracle = sim2_panel(rng, self.K, self.ROLL_N)
        self.csv = write_csv(workdir / "panel.csv", self.roll_y)

    def operations(self) -> list[Operation]:
        first = self.ROLL_N - self.ROLL_WINDOW
        roll_flags = ["--window", str(self.ROLL_WINDOW), "--stride", "20",
                      "--eval-len", str(self.ROLL_N - self.ROLL_WINDOW),
                      "--ar", "10"]
        return ([self.sim_operation(
                    ["--k", str(self.K), "--n", str(self.N), "--noise", "hurst"],
                    self.TRIALS, checks.SimExpectation(p=2, pca_median_min=10), 1)]
                + fit_operations(self.y, 2, None, None, (4, 50, 50))
                + [exact_operation(self.exact, 2, self.exact_h, 3)]
                + self.roll_operations(
                    self.csv, roll_flags,
                    checks.oracle_forecast_error(self.roll_y, self.roll_oracle, first),
                    checks.ORACLE_BAND_SIM2, None, (2, 4, 4)))


WORKLOADS = {"paper-cell": PaperCell, "rolling": Rolling, "montecarlo": MonteCarlo}
