"""Command-line surface: exit codes, files written, determinism."""

import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qrfactors import cli, simgen
from qrfactors.cli import main
from qrfactors.factor_rrqr import scan_model_order
from qrfactors.rrqr import singular_values
from qrfactors.simgen import gen_sim1
from qrfactors.tsdata import read_matrix


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _write_panel_csv(path, k, n, seed):
    data = gen_sim1(k=k, n=n, seed=seed)
    np.savetxt(path, data.y.values, delimiter=",")
    return path


# ------------------------------------------------------------------
# start-up

_IMPORT_THEN_SIM = """
import json, sys
import qrfactors.cli
loaded = [m for m in ("scipy.signal", "scipy.stats") if m in sys.modules]
code = qrfactors.cli.main(["sim", "--scenario", "sim1", "--k", "6",
                           "--n", "60", "--trials", "1",
                           "--outdir", sys.argv[1]])
print(json.dumps({"loaded": loaded, "code": code}))
"""


def test_cli_import_loads_no_signal_or_stats_module(tmp_path):
    # a fresh interpreter, since this one has loaded scipy.signal for the
    # tests' own filters: importing the CLI loads numpy and scipy.linalg,
    # not scipy.signal or scipy.stats (and their start-up time), and sim1,
    # whose factor is scipy.signal's AR(1) filter, still runs
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _IMPORT_THEN_SIM, str(tmp_path)],
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == {"loaded": [], "code": 0}
    assert _read_json(tmp_path / "sim_report.json")["report"]["trials"] == 1


# ------------------------------------------------------------------
# exit codes


def test_no_subcommand_is_a_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_missing_required_flag_is_a_usage_error(capsys):
    assert main(["sim", "--scenario", "sim1", "--n", "100"]) == 2
    capsys.readouterr()


def test_nonpositive_count_is_a_usage_error(tmp_path, capsys):
    data = _write_panel_csv(tmp_path / "panel.csv", k=4, n=60, seed=8)
    sim = ["sim", "--scenario", "sim1", "--k", "5", "--n", "100"]
    fit = ["fit", "--data", str(data), "--outdir", str(tmp_path)]
    for base, flag, value in [(sim, "--k", "0"), (sim, "--m", "-1"),
                              (fit, "--m", "0"), (fit, "--lag-lo", "0"),
                              (sim, "--lag-hi", "0")]:
        assert main([*base, flag, value]) == 2
        assert f"{flag} must be >= 1, got {value}" in capsys.readouterr().err


def test_missing_data_file_exits_one(tmp_path, capsys):
    code = main(["fit", "--data", str(tmp_path / "nope.csv"),
                 "--outdir", str(tmp_path)])
    assert code == 1
    assert "nope.csv" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["rrqr", "evd", "pca"])
def test_constant_panel_exits_one(tmp_path, capsys, method):
    panel = tmp_path / "panel.csv"
    np.savetxt(panel, np.full((4, 200), 2.5), delimiter=",")
    code = main(["fit", "--data", str(panel), "--method", method,
                 "--outdir", str(tmp_path)])
    assert code == 1
    assert "at least one series varies" in capsys.readouterr().err


def test_bad_matrix_file_exits_one(tmp_path, capsys):
    bad = tmp_path / "m.csv"
    bad.write_text("1,2\n3,potato\n")
    code = main(["rankscan", "--matrix", str(bad), "--n", "100",
                 "--outdir", str(tmp_path)])
    assert code == 1
    assert (f"{bad}: cell at row 2, column 2 is not numeric: 'potato'"
            in capsys.readouterr().err)


def test_read_matrix_skips_an_interior_blank_line(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n\n3,4\n")
    out = read_matrix(str(path))
    assert out.shape == (2, 2)
    assert out.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_read_matrix_numbers_a_bad_cell_by_its_file_line(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n\n \n3,x\n")
    with pytest.raises(ValueError) as err:
        read_matrix(str(path))
    assert (str(err.value)
            == f"{path}: cell at row 4, column 2 is not numeric: 'x'")


# ------------------------------------------------------------------
# sim


def _run_sim(outdir, extra=()):
    args = ["sim", "--scenario", "sim1", "--k", "8", "--n", "80",
            "--seed", "5", "--trials", "2", "--outdir", str(outdir)]
    return main(args + list(extra))


def test_sim_writes_report(tmp_path):
    assert _run_sim(tmp_path) == 0
    payload = _read_json(tmp_path / "sim_report.json")
    assert payload["manifest"]["subcommand"] == "sim"
    assert payload["report"]["trials"] == 2
    assert payload["report"]["per_method"]["rrqr"]["p_hat_counts"] == {"1": 2}


def test_sim_runs_its_trials_serially_by_default(tmp_path, monkeypatch):
    # the worker pool is opt-in (--threads N > 1); reports do not depend
    # on the worker count, and a default run spawns no process
    def no_pool(threads):
        raise AssertionError(f"a pool of {threads} workers was started")

    monkeypatch.setattr(simgen, "_single_thread_blas_pool", no_pool)
    assert _run_sim(tmp_path) == 0
    assert _read_json(tmp_path / "sim_report.json")["report"]["trials"] == 2


def test_sim_forecast_without_targets_exits_one(tmp_path, capsys):
    code = main(["sim", "--scenario", "sim1", "--k", "6", "--n", "20",
                 "--trials", "3", "--outputs", "forecast",
                 "--outdir", str(tmp_path)])
    assert code == 1
    assert "needs n > 20" in capsys.readouterr().err
    assert not (tmp_path / "sim_report.json").exists()


def test_sim_ratio_curves_csv(tmp_path):
    assert _run_sim(tmp_path, ["--outputs", "errors,ratios"]) == 0
    with open(tmp_path / "ratio_curves.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["i", "mean_r", "std_r", "method"]
    assert len(rows) > 2
    methods = {row[3] for row in rows[1:]}
    assert methods == {"rrqr", "evd"}


def test_sim_reports_a_method_that_fails_every_trial(tmp_path, monkeypatch):
    # evd raises in every trial: its entry is trials_ok 0 alone, each
    # trial records the failure, rrqr aggregates as it does on its own,
    # and ratio_curves.csv has no evd rows
    real = simgen.fit_method

    def no_evd(method, *args, **kwargs):
        if method == "evd":
            raise RuntimeError("evd fails")
        return real(method, *args, **kwargs)

    monkeypatch.setattr(simgen, "fit_method", no_evd)
    config = simgen.SimConfig(scenario="sim1", k=8, n=80, seed=5)
    outputs = ("errors", "ratios")
    report = simgen.monte_carlo(config, 2, methods=("rrqr", "evd"),
                                outputs=outputs)
    assert report["per_method"]["evd"] == {"trials_ok": 0}
    assert report["failures"] == [
        {"trial": t, "method": "evd", "message": "evd fails"} for t in (0, 1)]
    alone = simgen.monte_carlo(config, 2, methods=("rrqr",), outputs=outputs)
    assert report["per_method"]["rrqr"] == alone["per_method"]["rrqr"]
    assert report["per_method"]["rrqr"]["trials_ok"] == 2
    assert _run_sim(tmp_path, ["--outputs", "errors,ratios"]) == 0
    payload = _read_json(tmp_path / "sim_report.json")
    assert payload["report"]["per_method"]["evd"] == {"trials_ok": 0}
    with open(tmp_path / "ratio_curves.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) > 1 and {row[3] for row in rows[1:]} == {"rrqr"}


def test_sim_reports_are_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    assert _run_sim(a) == 0
    assert _run_sim(b) == 0
    pa, pb = _read_json(a / "sim_report.json"), _read_json(b / "sim_report.json")
    pa["manifest"].pop("created_utc"), pb["manifest"].pop("created_utc")
    assert pa == pb


def test_sim_scenario_two_with_hurst_noise(tmp_path):
    code = main(["sim", "--scenario", "sim2", "--k", "8", "--n", "60",
                 "--trials", "2", "--noise", "hurst",
                 "--methods", "rrqr,evd,pca", "--outdir", str(tmp_path)])
    assert code == 0
    payload = _read_json(tmp_path / "sim_report.json")
    assert set(payload["report"]["per_method"]) == {"rrqr", "evd", "pca"}


@pytest.mark.parametrize("scenario, flags, message", [
    ("sim1", ["--noise", "hurst"],
     "scenario sim1 draws iid noise only: drop --noise hurst, or use "
     "--scenario sim2"),
    ("sim2", ["--half-support"],
     "scenario sim2 has no half-support option: drop --half-support, or "
     "use --scenario sim1"),
], ids=["sim1 hurst", "sim2 half support"])
def test_sim_refuses_a_setting_its_scenario_ignores(scenario, flags, message,
                                                    tmp_path, capsys):
    assert main(["sim", "--scenario", scenario, "--k", "8", "--n", "60",
                 "--trials", "2", "--outdir", str(tmp_path)] + flags) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_sim_rejects_unknown_noise(tmp_path, capsys):
    assert _run_sim(tmp_path, ["--noise", "pink"]) == 2
    capsys.readouterr()


def test_outdir_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("QRFACTORS_OUTDIR", str(tmp_path))
    assert main(["sim", "--scenario", "sim1", "--k", "6", "--n", "60",
                 "--trials", "1"]) == 0
    assert (tmp_path / "sim_report.json").exists()


# ------------------------------------------------------------------
# fit


def test_fit_panel(tmp_path):
    data = _write_panel_csv(tmp_path / "panel.csv", k=6, n=200, seed=9)
    assert main(["fit", "--data", str(data), "--outdir", str(tmp_path)]) == 0
    payload = _read_json(tmp_path / "fit_report.json")
    assert payload["fit"]["p_hat"] == 1
    q = np.loadtxt(tmp_path / "q_hat.csv", delimiter=",").reshape(6, -1)
    assert q.shape == (6, 1)
    factors = np.loadtxt(tmp_path / "factors.csv", delimiter=",")
    assert factors.shape == (200,)


def _fit_argv(config):
    """The fit command a fit report's manifest config records."""
    argv = ["fit", "--data", config["data"],
            "--orientation", config["orientation"], "--method",
            config["method"], "--lag-lo", str(config["lag_lo"]),
            "--lag-hi", str(config["lag_hi"])]
    argv += ["--header"] if config["header"] else []
    for key, flag in (("p_override", "--p"), ("p_cap", "--p-cap")):
        if config[key] is not None:
            argv += [flag, str(config[key])]
    return argv


def test_fit_reruns_from_its_manifest(tmp_path):
    # a columns-oriented panel with a header row: the manifest records
    # both settings, so it is enough to run the fit again
    data = gen_sim1(k=6, n=150, seed=13).y.values
    path = tmp_path / "panel.csv"
    np.savetxt(path, data.T, delimiter=",", comments="",
               header=",".join(f"s{i}" for i in range(6)))
    assert main(["fit", "--data", str(path), "--orientation", "columns",
                 "--header", "--p-cap", "4", "--outdir",
                 str(tmp_path / "first")]) == 0
    first = _read_json(tmp_path / "first" / "fit_report.json")
    config = first["manifest"]["config"]
    assert (config["orientation"], config["header"]) == ("columns", True)
    assert main([*_fit_argv(config), "--outdir", str(tmp_path / "again")]) == 0
    again = _read_json(tmp_path / "again" / "fit_report.json")
    assert again["fit"] == first["fit"]
    assert again["manifest"]["config"] == config
    for name in ("q_hat.csv", "factors.csv"):
        assert (tmp_path / "again" / name).read_bytes() \
            == (tmp_path / "first" / name).read_bytes()


def test_sim_and_roll_manifests_record_their_settings(tmp_path):
    assert main(["sim", "--scenario", "sim1", "--k", "6", "--n", "80",
                 "--trials", "1", "--p-override", "1", "--p-cap", "3",
                 "--outdir", str(tmp_path)]) == 0
    config = _read_json(tmp_path / "sim_report.json")["manifest"]["config"]
    assert (config["p_override"], config["p_cap"], config["threads"]) \
        == (1, 3, 1)
    data = _write_panel_csv(tmp_path / "panel.csv", k=4, n=120, seed=18)
    assert main(["roll", "--data", str(data), "--window", "60",
                 "--stride", "30", "--ar", "2", "--eval-len", "60",
                 "--outdir", str(tmp_path)]) == 0
    config = _read_json(tmp_path / "roll_report.json")["manifest"]["config"]
    assert (config["orientation"], config["header"]) \
        == ("rows-are-series", False)


def test_fit_rank_override(tmp_path):
    data = _write_panel_csv(tmp_path / "panel.csv", k=6, n=150, seed=10)
    assert main(["fit", "--data", str(data), "--p", "3",
                 "--outdir", str(tmp_path)]) == 0
    payload = _read_json(tmp_path / "fit_report.json")
    assert payload["fit"]["p_hat"] == 3


def test_fit_evd_reports_its_ratio_curve(tmp_path):
    data = _write_panel_csv(tmp_path / "panel.csv", k=6, n=150, seed=12)
    assert main(["fit", "--data", str(data), "--method", "evd",
                 "--outdir", str(tmp_path)]) == 0
    scan = _read_json(tmp_path / "fit_report.json")["fit"]["scan"]
    assert scan["p_cap"] == 5
    assert scan["epsilon"] == 0.0
    assert [c["i"] for c in scan["candidates"]] == [1, 2, 3, 4, 5]


def test_fit_pca_accepts_p_max_spelling(tmp_path):
    data = _write_panel_csv(tmp_path / "panel.csv", k=6, n=150, seed=11)
    assert main(["fit", "--data", str(data), "--method", "pca",
                 "--p-max", "4", "--outdir", str(tmp_path)]) == 0
    payload = _read_json(tmp_path / "fit_report.json")
    assert payload["fit"]["method"] == "PCA"
    assert payload["fit"]["p_hat"] <= 4


# ------------------------------------------------------------------
# rankscan


def test_rankscan_worked_example(tmp_path):
    mat = tmp_path / "m.csv"
    np.savetxt(mat, np.diag([18.0, 5.0, 0.8]), delimiter=",")
    assert main(["rankscan", "--matrix", str(mat), "--n", "10000",
                 "--outdir", str(tmp_path)]) == 0
    payload = _read_json(tmp_path / "rankscan_report.json")
    assert payload["scan"]["p_hat"] == 2
    with open(tmp_path / "rankscan_table.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["i", "gamma", "gamma_next", "ratio", "selected"]
    assert [row[4] for row in rows[1:]] == ["0", "1"]


def test_rankscan_cap_limits_candidates(tmp_path):
    mat = tmp_path / "m.csv"
    np.savetxt(mat, np.diag([9.0, 3.0, 1.0, 0.2]), delimiter=",")
    assert main(["rankscan", "--matrix", str(mat), "--n", "500",
                 "--p-cap", "1", "--outdir", str(tmp_path)]) == 0
    payload = _read_json(tmp_path / "rankscan_report.json")
    assert len(payload["scan"]["candidates"]) == 1


def test_rankscan_of_a_matrix_whose_column_norms_overflow(tmp_path):
    # every entry is finite; the scan runs at unit scale and the gammas
    # that leave the float range are reported as "inf"
    a = np.random.default_rng(70).uniform(0.5, 1.0, (6, 9)) * 1.7e308
    mat = tmp_path / "m.csv"
    np.savetxt(mat, a, delimiter=",", fmt="%.17g")
    assert main(["rankscan", "--matrix", str(mat), "--n", "100",
                 "--outdir", str(tmp_path)]) == 0
    scan = _read_json(tmp_path / "rankscan_report.json")["scan"]
    unit = scan_model_order(np.ldexp(a, -1000), n=100)
    assert scan["p_hat"] == unit.p_hat
    assert [c["ratio"] for c in scan["candidates"]] == unit.ratios().tolist()
    assert scan["candidates"][0]["gamma"] == "inf"


@pytest.mark.parametrize("shape", [(1, 4), (3, 1)])
def test_rankscan_of_one_row_or_one_column_exits_one(tmp_path, capsys, shape):
    # the message names the shape and what a rank scan needs, not the
    # fitters' factor-count pin, which rankscan does not have
    mat = tmp_path / "m.csv"
    np.savetxt(mat, np.arange(1.0, 1.0 + shape[0] * shape[1]).reshape(shape),
               delimiter=",")
    outdir = tmp_path / "out"
    code = main(["rankscan", "--matrix", str(mat), "--n", "100",
                 "--outdir", str(outdir)])
    assert code == 1
    err = capsys.readouterr().err
    assert ("a rank scan needs at least 2 rows and 2 columns, got a "
            f"{shape[0]} x {shape[1]} matrix") in err
    assert "p_override" not in err
    assert not outdir.exists() or list(outdir.iterdir()) == []


# ------------------------------------------------------------------
# rrqr


def test_rrqr_hybrid3_outputs(tmp_path):
    rng = np.random.default_rng(12)
    a = rng.standard_normal((6, 9))
    mat = tmp_path / "m.csv"
    np.savetxt(mat, a, delimiter=",")
    assert main(["rrqr", "--matrix", str(mat), "--alg", "hybrid3",
                 "--rank", "2", "--outdir", str(tmp_path)]) == 0
    summary = _read_json(tmp_path / "rrqr_report.json")["summary"]
    assert summary["algorithm"] == "hybrid3"
    assert summary["r11_bound_slack"] >= 1.0 - 1e-9
    assert summary["r22_bound_slack"] >= 1.0 - 1e-9
    with open(tmp_path / "perm.csv", newline="") as fh:
        perm = [int(c) for c in next(csv.reader(fh))]
    assert sorted(perm) == list(range(9))
    q = np.loadtxt(tmp_path / "q.csv", delimiter=",")
    r = np.loadtxt(tmp_path / "r.csv", delimiter=",")
    recon = q @ r
    assert np.linalg.norm(recon - a[:, perm]) <= 1e-8 * np.linalg.norm(a)


def test_rrqr_plain_pivoting(tmp_path):
    rng = np.random.default_rng(13)
    mat = tmp_path / "m.csv"
    np.savetxt(mat, rng.standard_normal((5, 7)), delimiter=",")
    assert main(["rrqr", "--matrix", str(mat), "--alg", "qrcp",
                 "--rank", "3", "--outdir", str(tmp_path)]) == 0
    summary = _read_json(tmp_path / "rrqr_report.json")["summary"]
    assert summary["sigma_top"] > 0


def test_rrqr_stewart2_reports_its_r_blocks(tmp_path):
    mat = Path(__file__).parent / "golden" / "inputs" / "matrix.csv"
    assert main(["rrqr", "--matrix", str(mat), "--alg", "stewart2",
                 "--rank", "3", "--outdir", str(tmp_path)]) == 0
    summary = _read_json(tmp_path / "rrqr_report.json")["summary"]
    r = read_matrix(tmp_path / "r.csv")
    assert summary["algorithm"] == "stewart2"
    assert summary["sigma_min_r11"] == singular_values(r[:3, :3])[-1]
    assert summary["sigma_max_r22"] == singular_values(r[3:, 3:])[0]


def test_rrqr_of_a_matrix_whose_column_norms_overflow(tmp_path):
    # the report's values past the float range are the string "inf",
    # numpy scalars among them, and the bound products do not warn
    a = np.random.default_rng(70).uniform(0.5, 1.0, (6, 9)) * 1.7e308
    mat = tmp_path / "m.csv"
    np.savetxt(mat, a, delimiter=",", fmt="%.17g")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["rrqr", "--matrix", str(mat), "--alg", "hybrid3",
                     "--rank", "2", "--outdir", str(tmp_path)]) == 0
    summary = _read_json(tmp_path / "rrqr_report.json")["summary"]
    assert summary["sigma_top"] == summary["r22_upper_bound"] == "inf"
    assert summary["r22_bound_slack"] == "inf"


def test_rrqr_gsqr_needs_no_rank(tmp_path):
    mat = tmp_path / "m.csv"
    np.savetxt(mat, np.diag([4.0, 2.0, 1.0]), delimiter=",")
    assert main(["rrqr", "--matrix", str(mat), "--alg", "gsqr",
                 "--outdir", str(tmp_path)]) == 0


@pytest.mark.parametrize("alg", ["gsqr", "qrcp", "stewart2", "hybrid1",
                                 "hybrid2", "hybrid3"])
def test_rrqr_rank_is_checked(alg, tmp_path, capsys):
    # every --alg names --rank past its limit: min(K, n), one less for
    # hybrid2 and hybrid3, which need a column past the rank
    top = 3 if alg in ("hybrid2", "hybrid3") else 4
    mat = tmp_path / "m.csv"
    np.savetxt(mat, np.arange(32.0).reshape(4, 8) ** 2, delimiter=",")
    for rank in (9, top + 1):
        assert main(["rrqr", "--matrix", str(mat), "--alg", alg,
                     "--rank", str(rank), "--outdir", str(tmp_path)]) == 1
        assert capsys.readouterr().err \
            == f"error: rank must be in [1, {top}], got {rank}\n"
        assert not (tmp_path / "rrqr_report.json").exists()
    code = main(["rrqr", "--matrix", str(mat), "--alg", alg,
                 "--rank", str(top), "--outdir", str(tmp_path)])
    if alg == "stewart2":      # rank 3: its 4 x 4 leading block is singular
        assert code == 1
        assert "leading block is numerically singular" \
            in capsys.readouterr().err
    else:
        assert code == 0


def test_sim_refuses_lags_no_fit_can_take(tmp_path, capsys):
    # lags 1..9 at N = 10: every rrqr and evd trial would fail
    for methods in ("rrqr,evd,pca", "pca"):
        assert main(["sim", "--scenario", "sim2", "--k", "4", "--n", "10",
                     "--m", "9", "--methods", methods,
                     "--outdir", str(tmp_path)]) == 1
        assert capsys.readouterr().err \
            == "error: lag_hi=9 too large for N=10 (max 8)\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags, message", [
    (["--p-cap", "40"], "p_cap must be in [1, 3], got 40 (--p-cap)"),
    (["--p-override", "9"],
     "p_override must be in [1, 4], got 9 (fit --p, sim --p-override)"),
], ids=["cap", "pin"])
def test_sim_refuses_a_rank_no_fit_can_take(tmp_path, capsys, flags, message):
    # every trial's fits would fail: refused before the first draw
    assert main(["sim", "--scenario", "sim1", "--k", "4", "--n", "30",
                 "--trials", "1", *flags, "--outdir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--alpha1", "--alpha2", "--w",
                                  "--noise-scale"])
def test_sim_has_no_flag_for_a_scenario_constant(tmp_path, capsys, flag):
    assert _run_sim(tmp_path, [flag, "0.5"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags", [["--scenario", "sim1"],
                                   ["--scenario", "sim2", "--noise", "hurst"]],
                         ids=["sim1", "sim2 hurst"])
def test_sim_manifest_config_keys(tmp_path, flags):
    # the eight SimConfig fields and the run's own settings, nothing else
    assert main(["sim", *flags, "--k", "8", "--n", "60", "--trials", "1",
                 "--outdir", str(tmp_path)]) == 0
    config = _read_json(tmp_path / "sim_report.json")["manifest"]["config"]
    assert list(config) == ["scenario", "k", "n", "seed", "lag_lo", "lag_hi",
                            "noise_kind", "half_support", "trials", "methods",
                            "outputs", "p_override", "p_cap", "threads"]


@pytest.mark.parametrize("alg", ["hybrid2", "hybrid3"])
@pytest.mark.parametrize("shape", [(1, 3), (3, 1)])
def test_rrqr_split_of_one_row_or_one_column_exits_one(tmp_path, capsys, alg,
                                                       shape):
    # no rank leaves a column past it: the message names the shape, not
    # an empty rank range
    mat = tmp_path / "m.csv"
    np.savetxt(mat, np.ones(shape), delimiter=",")
    assert main(["rrqr", "--matrix", str(mat), "--alg", alg, "--rank", "1",
                 "--outdir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"error: {alg} needs at least 2 rows and 2 columns, "
        f"got a {shape[0]} x {shape[1]} matrix\n")
    assert not (tmp_path / "out").exists()


def test_rrqr_pivoted_algorithms_demand_a_rank(tmp_path, capsys):
    mat = tmp_path / "m.csv"
    np.savetxt(mat, np.eye(4), delimiter=",")
    assert main(["rrqr", "--matrix", str(mat), "--alg", "hybrid1",
                 "--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: qrfactors rrqr")
    assert "error: --rank is required for --alg hybrid1" in err


def test_rrqr_rejects_zero_rank(tmp_path, capsys):
    mat = tmp_path / "m.csv"
    np.savetxt(mat, np.eye(3), delimiter=",")
    assert main(["rrqr", "--matrix", str(mat), "--rank", "0",
                 "--outdir", str(tmp_path)]) == 2
    capsys.readouterr()


# ------------------------------------------------------------------
# roll


def test_roll_defaults_and_report(tmp_path):
    data = _write_panel_csv(tmp_path / "panel.csv", k=6, n=600, seed=14)
    assert main(["roll", "--data", str(data), "--window", "300",
                 "--stride", "100", "--ar", "5", "--eval-len", "200",
                 "--outdir", str(tmp_path)]) == 0
    payload = _read_json(tmp_path / "roll_report.json")
    assert payload["report"]["p_hat_mean"] == 1.0
    assert payload["report"]["fe"] > 0
    with open(tmp_path / "per_window.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3   # header + two refits


def test_roll_pca_p_max_spelling(tmp_path):
    data = _write_panel_csv(tmp_path / "panel.csv", k=6, n=500, seed=15)
    assert main(["roll", "--data", str(data), "--method", "pca",
                 "--p-max", "4", "--window", "250", "--stride", "125",
                 "--eval-len", "250", "--outdir", str(tmp_path)]) == 0


@pytest.mark.parametrize("flags,message", [
    (["--window", "15"],
     "ar_order (--ar) must be in [1, 7], half the window=15 (--window) "
     "its AR fits read, got 10"),
    (["--window", "3", "--ar", "1"],
     "lag_hi=2 (--lag-hi or --m) is too large for window=3 (--window): "
     "the lags reach at most window - 2 = 1"),
], ids=["ar order", "lags"])
def test_roll_window_too_short_for_its_fits_exits_one(tmp_path, capsys,
                                                      flags, message):
    data = _write_panel_csv(tmp_path / "panel.csv", k=4, n=60, seed=16)
    out = tmp_path / "out"
    assert main(["roll", "--data", str(data), "--eval-len", "20", *flags,
                 "--outdir", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("method", ["rrqr", "evd", "pca"])
def test_roll_rank_cap_message_names_its_flag(tmp_path, capsys, method):
    # pca's search limit too is the cap, named as the other fits name it
    data = _write_panel_csv(tmp_path / "panel.csv", k=4, n=80, seed=16)
    assert main(["roll", "--data", str(data), "--method", method,
                 "--window", "60", "--eval-len", "20", "--p-cap", "40",
                 "--outdir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err \
        == "error: p_cap must be in [1, 3], got 40 (--p-cap)\n"


def test_roll_short_series_exits_one(tmp_path, capsys):
    data = _write_panel_csv(tmp_path / "panel.csv", k=5, n=300, seed=16)
    code = main(["roll", "--data", str(data), "--outdir", str(tmp_path)])
    assert code == 1
    capsys.readouterr()


# ------------------------------------------------------------------
# bad input and the parser


def test_oversized_csv_field_exits_one(tmp_path, capsys):
    path = tmp_path / "panel.csv"
    path.write_text("1,2,3\n4," + "5" * (csv.field_size_limit() + 10) + ",6\n")
    assert main(["fit", "--data", str(path), "--outdir", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: field larger")
    assert not (tmp_path / "fit_report.json").exists()


@pytest.mark.parametrize("flag", ["--lag-lo", "--lag-hi"])
@pytest.mark.parametrize("sub", ["sim", "fit", "roll"])
def test_m_with_a_lag_bound_is_a_usage_error(tmp_path, capsys, sub, flag):
    # --m M means lags 1..M; with an explicit bound beside it one of the
    # two would be dropped without a word
    data = _write_panel_csv(tmp_path / "panel.csv", k=4, n=600, seed=17)
    base = {"sim": ["sim", "--scenario", "sim1", "--k", "5", "--n", "100",
                    "--trials", "1"],
            "fit": ["fit", "--data", str(data)],
            "roll": ["roll", "--data", str(data)]}[sub]
    outdir = tmp_path / "out"
    assert main([*base, "--m", "3", flag, "2", "--outdir", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert "--m cannot be combined with --lag-lo or --lag-hi" in err
    assert not outdir.exists()


def test_one_parser_serves_every_call(tmp_path, capsys):
    # the parser is built once; a call that ends in a usage error leaves
    # nothing behind for the next call to read
    assert cli._build_parser() is cli._build_parser()
    data = _write_panel_csv(tmp_path / "panel.csv", k=6, n=200, seed=18)
    fit = ["fit", "--data", str(data), "--outdir", str(tmp_path)]

    def report():
        assert main(fit) == 0
        payload = _read_json(tmp_path / "fit_report.json")
        del payload["manifest"]["created_utc"]
        return payload

    first = report()
    assert first["manifest"]["config"]["lag_lo"] == 1
    assert first["manifest"]["config"]["lag_hi"] == 2
    assert main([*fit, "--m", "4", "--lag-hi", "3"]) == 2
    assert main(["rrqr", "--matrix", str(data), "--alg", "hybrid1"]) == 2
    assert report() == first
    capsys.readouterr()


def test_non_finite_report_values_are_strings(tmp_path):
    # an EVD fit of an exact-rank panel has a zero eigenvalue behind its
    # p_hat-th ratio; JSON has no Infinity, so the report carries "inf"
    rng = np.random.default_rng(19)
    path = tmp_path / "panel.csv"
    np.savetxt(path, rng.standard_normal((12, 2))
               @ rng.standard_normal((2, 200)), delimiter=",")
    assert main(["fit", "--data", str(path), "--method", "evd",
                 "--outdir", str(tmp_path)]) == 0

    def refuse(token):
        raise ValueError(f"non-JSON constant {token}")

    with open(tmp_path / "fit_report.json", encoding="utf-8") as fh:
        scan = json.load(fh, parse_constant=refuse)["fit"]["scan"]
    assert scan["p_hat"] == 2
    assert scan["candidates"][1]["ratio"] == "inf"
