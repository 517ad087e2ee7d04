"""Command-line surface: exit codes, files written, determinism."""

import csv
import json

import numpy as np
import pytest

from qrfactors.cli import main
from qrfactors.simgen import gen_sim1


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _write_panel_csv(path, k, n, seed):
    data = gen_sim1(k=k, n=n, seed=seed)
    np.savetxt(path, data.y.values, delimiter=",")
    return path


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
                 "--trials", "2", "--noise", "hurst", "--w", "0.6",
                 "--methods", "rrqr,evd,pca", "--outdir", str(tmp_path)])
    assert code == 0
    payload = _read_json(tmp_path / "sim_report.json")
    assert set(payload["report"]["per_method"]) == {"rrqr", "evd", "pca"}


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


def test_rrqr_gsqr_needs_no_rank(tmp_path):
    mat = tmp_path / "m.csv"
    np.savetxt(mat, np.diag([4.0, 2.0, 1.0]), delimiter=",")
    assert main(["rrqr", "--matrix", str(mat), "--alg", "gsqr",
                 "--outdir", str(tmp_path)]) == 0


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


def test_roll_short_series_exits_one(tmp_path, capsys):
    data = _write_panel_csv(tmp_path / "panel.csv", k=5, n=300, seed=16)
    code = main(["roll", "--data", str(data), "--outdir", str(tmp_path)])
    assert code == 1
    capsys.readouterr()
