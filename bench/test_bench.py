"""Tests of the benchmark itself: every check rejects a corrupted output,
the tracer wraps and unwraps cleanly, and a short form (one round) of
each workload runs to its end.

Run from the repository root: python3 -m pytest bench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import qrfactors as qf  # noqa: E402
import qrfactors.cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import TRACED, Tracer, metric_units  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def as_fit(fit, **changes):
    """A mutable stand-in for a FactorModelFit, with fields replaced."""
    fields = {name: getattr(fit, name) for name in
              ("method", "p_hat", "q_hat", "factors", "scan", "diagnostics")}
    fields.update(changes)
    return SimpleNamespace(**fields)


def rotated(q, angle=0.3):
    """q with its first column turned by `angle` out of q's span."""
    q = np.asarray(q, dtype=float)
    out = np.linalg.qr(np.column_stack([q, np.eye(q.shape[0])]))[0]
    off = out[:, q.shape[1]]
    turned = q.copy()
    turned[:, 0] = np.cos(angle) * q[:, 0] + np.sin(angle) * off
    return turned


@pytest.fixture(scope="module")
def panel():
    rng = np.random.default_rng(7)
    y, h, _ = workloads.sim1_panel(rng, 40, 300)
    ts = qf.TimeSeries(y)
    ref = checks.PanelReference(y, 1, 5)
    fits = {"rrqr": qf.fit_rrqr(ts, 1, 5), "evd": qf.fit_evd(ts, 1, 5),
            "pca": qf.fit_pca(ts)}
    return SimpleNamespace(y=y, h=h, ref=ref, fits=fits)


def fit_problems(method, fit, ref, truth):
    base = checks.check_fit_identities(fit, ref)
    if method == "rrqr":
        return base + checks.check_rrqr(fit, ref) + checks.check_truth(fit, truth, 0.05)
    if method == "evd":
        return base + checks.check_evd(fit, ref) + checks.check_truth(fit, truth, 0.05)
    return base + checks.check_pca(fit, ref)


@pytest.mark.parametrize("method", ["rrqr", "evd", "pca"])
def test_fit_checks_pass_and_reject_corruption(panel, method):
    fit = panel.fits[method]
    p = fit.p_hat
    assert fit_problems(method, fit, panel.ref, panel.h) == []
    # loading rotated off its span (factors recomputed to match)
    q = rotated(fit.q_hat)
    bad = as_fit(fit, q_hat=q, factors=q.T @ panel.ref.centered)
    assert fit_problems(method, bad, panel.ref, panel.h)
    # loading rotated but factors left as they were
    assert checks.check_fit_identities(as_fit(fit, q_hat=q), panel.ref)
    # p_hat off by one, with a loading of matching width
    q2 = np.linalg.qr(np.column_stack([fit.q_hat, panel.ref.lag0_vectors[:, p]]))[0]
    bad = as_fit(fit, p_hat=p + 1, q_hat=q2, factors=q2.T @ panel.ref.centered)
    assert fit_problems(method, bad, panel.ref, panel.h)


def test_rrqr_checks_reject_wrong_epsilon_and_r11(panel):
    fit = panel.fits["rrqr"]
    scan = SimpleNamespace(epsilon=fit.scan.epsilon * (1 + 1e-6),
                           ratios=fit.scan.ratios)
    assert checks.check_rrqr(as_fit(fit, scan=scan), panel.ref)
    diag = {**fit.diagnostics, "r11_min_sv": 1e-3 * fit.diagnostics["r11_min_sv"]}
    assert checks.check_rrqr(as_fit(fit, diagnostics=diag), panel.ref)


def test_exact_check_passes_and_rejects_corruption():
    y, h = workloads.exact_sim1_panel(np.random.default_rng(3), 20, 200)
    ref = checks.PanelReference(y, 1, 2)
    fit = qf.fit_rrqr(qf.TimeSeries(y))
    assert checks.check_exact(fit, ref, h) == []
    assert checks.check_exact(as_fit(fit, q_hat=rotated(fit.q_hat, 1e-6)), ref, h)
    assert checks.check_exact(as_fit(fit, p_hat=2), ref, h)
    diag = {**fit.diagnostics, "r22_max_sv": 1e-6 * ref.svals[0]}
    assert checks.check_exact(as_fit(fit, diagnostics=diag), ref, h)


def test_roll_checks_reject_corruption():
    rng = np.random.default_rng(5)
    y, h, oracle = workloads.sim1_panel(rng, 20, 400)
    ts = qf.TimeSeries(y)
    rep = qf.rolling_eval(ts, "evd", window=200, refit_stride=20, eval_len=200)
    report = {"fe": rep.fe, "p_hat_mean": rep.p_hat_mean}
    p_hats = [r.p_hat for r in rep.per_window]
    oracle_fe = checks.oracle_forecast_error(y, oracle, 200)
    assert checks.check_roll("evd", report, p_hats, oracle_fe, checks.ORACLE_BAND, 1) == []
    assert checks.check_roll("evd", report, [2] + p_hats[1:], oracle_fe,
                             checks.ORACLE_BAND, 1)
    assert checks.check_roll("evd", {**report, "fe": 1.2 * rep.fe}, p_hats,
                             oracle_fe, checks.ORACLE_BAND, 1)
    assert checks.check_roll("evd", {**report, "p_hat_mean": 1.1}, p_hats,
                             oracle_fe, checks.ORACLE_BAND, 1)
    assert checks.check_roll_parity(rep.fe, rep.fe) == []
    assert checks.check_roll_parity(1.1 * rep.fe, rep.fe)
    assert checks.check_roll_parity(float("nan"), rep.fe)


@pytest.fixture(scope="module")
def sim_payload(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("sim")
    argv = ["sim", "--scenario", "sim2", "--k", "100", "--n", "200",
            "--noise", "hurst", "--trials", "3", "--seed", "11",
            "--methods", "rrqr,evd,pca", "--outputs", workloads.SIM_OUTPUTS,
            "--threads", "1", "--outdir", str(outdir)]
    assert qrfactors.cli.main(argv) == 0
    return json.loads((outdir / "sim_report.json").read_text())


def test_sim_checks_pass_and_reject_corruption(sim_payload):
    expect = checks.SimExpectation(p=2, pca_median_min=10)
    assert checks.check_sim_report(sim_payload, 3, expect) == []
    per = ["report", "per_method"]

    def changed(path, value):
        payload = copy.deepcopy(sim_payload)
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return payload

    corrupt = [
        changed(per + ["rrqr", "p_hat_counts"], {"1": 1, "2": 2}),
        changed(per + ["evd", "trials_ok"], 2),
        changed(per + ["evd", "error_mean"], 0.5),
        changed(per + ["rrqr", "ratio_mean"], [9.0, 1.0, 1.0]),
        changed(per + ["pca", "p_hat_median"], 2.0),
        changed(["report", "failures"], [{"trial": 0, "method": "rrqr",
                                          "message": "x"}]),
    ]
    for payload in corrupt:
        assert checks.check_sim_report(payload, 3, expect), payload
    # one field changed anywhere in the body breaks bit-identity, and the
    # manifest timestamp alone does not
    body = checks.report_body(sim_payload)
    stamp = changed(["manifest", "created_utc"], "2000-01-01T00:00:00+00:00")
    assert checks.report_body(stamp) == body
    mean = sim_payload["report"]["per_method"]["evd"]["rmse_mean"]
    nudged = changed(per + ["evd", "rmse_mean"], np.nextafter(mean, 2 * mean))
    assert checks.report_body(nudged) != body


def test_tracer_wraps_every_name_and_restores_it(panel):
    originals = {(m, f): getattr(__import__(f"qrfactors.{m}", fromlist=[f]), f)
                 for m, f in TRACED}
    tracer = Tracer()
    tracer.install()
    try:
        import qrfactors.forecast_eval as fe

        assert fe.fit_rrqr is not originals[("factor_rrqr", "fit_rrqr")]
        assert qf.fit_rrqr is fe.fit_rrqr
        wrappers = {id(getattr(sys.modules[f"qrfactors.{m}"], f)) for m, f in TRACED}
        tracer.start()
        qf.rolling_eval(qf.TimeSeries(panel.y), "evd", window=150, eval_len=20)
        values = tracer.metrics(rounds=1)
    finally:
        tracer.uninstall()
    assert values["forecast_eval.rolling_eval.calls"] == 1
    assert values["baselines.fit_evd.calls"] == 2
    assert values["baselines.evd_spectrum.per_evd_fit"] == 1
    assert values["covariance.sample_autocov.calls"] == 4
    assert all(v >= 0 for v in values.values())
    assert set(values) == set(metric_units())
    # self times add up to the outermost span's duration
    top = [s for s in tracer.spans if s[3] == -1]
    assert len(top) == 1
    total_self = sum(v for k, v in values.items() if k.endswith(".self_s"))
    assert total_self == pytest.approx(top[0][2] - top[0][1], rel=1e-9)
    for module in [m for k, m in sys.modules.items() if k.startswith("qrfactors")]:
        assert not wrappers & {id(v) for v in vars(module).values()}, module
    for (module, func), original in originals.items():
        assert getattr(sys.modules[f"qrfactors.{module}"], func) is original


def test_metric_names_match_benchmark_json():
    assert [m["name"] for m in SPEC["per_layer"]] == list(metric_units())
    units = metric_units()
    assert all(m["unit"] == units[m["name"]] for m in SPEC["per_layer"])


def run_bench(*args, cwd=ROOT):
    done = subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py")]
                          + list(args), cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    return done


@pytest.mark.parametrize("workload", ["paper-cell", "rolling", "montecarlo"])
def test_short_workload_runs_to_its_end(workload):
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stderr
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_short_traced_run_prints_every_layer_metric():
    done = run_bench("--workload", "rolling", "--seed", "3", "--seconds", "0",
                     "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, done.stderr
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["forecast_eval.rolling_eval.calls"]["value"] >= 3


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "rolling", "--seed", "1", "--seconds", "1",
                     cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
