"""Command-line front end.

Subcommands: ``sim`` (Monte-Carlo scenario runs), ``fit`` (factor fit on
a CSV panel), ``rankscan`` (rank-ratio table of a matrix file), ``rrqr``
(matrix decomposition with a chosen pivoting strategy), ``roll``
(rolling one-step forecast evaluation).

Every JSON report embeds a manifest with the resolved configuration and
the seed, so a report is a complete recipe for its own reproduction.
Report bodies are deterministic for a fixed seed; only the manifest
timestamp varies run to run. Exit codes: 0 success, 2 bad usage, 1
runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .factor_rrqr import FactorModelFit, scan_model_order
from .forecast_eval import fit_method, rolling_eval
from .rrqr import gs_qr, hybrid1, hybrid2, hybrid3, qr_cp, singular_values, stewart2
from .simgen import SimConfig, monte_carlo
from .tsdata import load_csv


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility header embedded in every report."""

    subcommand: str
    config: dict
    seed: int | None
    version: str
    created_utc: str


def _manifest(subcommand: str, config: dict, seed: int | None) -> dict:
    return asdict(RunManifest(
        subcommand=subcommand,
        config=config,
        seed=seed,
        version=__version__,
        created_utc=datetime.now(timezone.utc).isoformat(),
    ))


def _outdir(args) -> Path:
    base = args.outdir or os.environ.get("QRFACTORS_OUTDIR") or "."
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _sanitize(obj):
    """JSON has no Infinity/NaN tokens; carry them as strings."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def _write_json(path: Path, payload: dict) -> None:
    # json round-trips Python floats through their shortest exact repr,
    # which preserves all 17 significant digits.
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_sanitize(payload), fh, indent=2, allow_nan=False)
        fh.write("\n")


def _write_matrix_csv(path: Path, matrix: np.ndarray) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for row in np.atleast_2d(matrix):
            writer.writerow([repr(float(v)) for v in row])


def _read_matrix(path: str) -> np.ndarray:
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for line in csv.reader(fh):
            if not line or all(c.strip() == "" for c in line):
                continue
            try:
                rows.append([float(c) for c in line])
            except ValueError as exc:
                raise ValueError(f"{path}: non-numeric cell ({exc})") from exc
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"{path}: ragged rows (widths {sorted(widths)})")
    return np.array(rows)


def _lag_range(args) -> tuple[int, int]:
    if getattr(args, "m", None) is not None:
        return 1, args.m
    return args.lag_lo, args.lag_hi


def _add_lag_flags(sub) -> None:
    sub.add_argument("--m", type=int, default=None,
                     help="shorthand for lags 1..m")
    sub.add_argument("--lag-lo", type=int, default=1)
    sub.add_argument("--lag-hi", type=int, default=2)


def _add_outdir_flag(sub) -> None:
    sub.add_argument("--outdir", default=None,
                     help="output directory (default: $QRFACTORS_OUTDIR or .)")


# ---------------------------------------------------------------------------
# sim


def _cmd_sim(args) -> int:
    lag_lo, lag_hi = _lag_range(args)
    config = SimConfig(
        scenario=args.scenario, k=args.k, n=args.n, seed=args.seed,
        lag_lo=lag_lo, lag_hi=lag_hi, alpha1=args.alpha1, alpha2=args.alpha2,
        noise_kind="hurst" if args.noise == "hurst" else "iid_identity",
        hurst_w=args.w, noise_scale=args.noise_scale,
        half_support=args.half_support,
    )
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    outputs = [o.strip() for o in args.outputs.split(",") if o.strip()]
    report = monte_carlo(config, args.trials, methods=methods,
                         outputs=outputs, p_override=args.p_override,
                         p_cap=args.p_cap, threads=args.threads)
    payload = {
        "manifest": _manifest("sim", {**asdict(config), "trials": args.trials,
                                      "methods": methods, "outputs": outputs},
                              config.seed),
        "report": report,
    }
    outdir = _outdir(args)
    report_path = outdir / "sim_report.json"
    _write_json(report_path, payload)
    written = [report_path]
    if "ratios" in outputs:
        curve_path = outdir / "ratio_curves.csv"
        with open(curve_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["i", "mean_r", "std_r", "method"])
            for method, agg in report["per_method"].items():
                for i, (mean_r, std_r) in enumerate(
                        zip(agg.get("ratio_mean", []),
                            agg.get("ratio_std", [])), start=1):
                    writer.writerow([i, repr(mean_r), repr(std_r), method])
        written.append(curve_path)
    for path in written:
        print(path)
    return 0


# ---------------------------------------------------------------------------
# fit


def _serialize_fit(fit: FactorModelFit) -> dict:
    out = {
        "method": fit.method,
        "p_hat": fit.p_hat,
        "diagnostics": {k: float(v) for k, v in fit.diagnostics.items()},
    }
    if fit.scan is not None:
        out["scan"] = {
            "epsilon": fit.scan.epsilon,
            "p_hat": fit.scan.p_hat,
            "p_cap": fit.scan.p_cap,
            "candidates": [
                {"i": c.index, "gamma": c.gamma,
                 "gamma_next": c.gamma_next, "ratio": c.ratio}
                for c in fit.scan.candidates
            ],
        }
    return out


def _cmd_fit(args) -> int:
    ts = load_csv(args.data, orientation=args.orientation,
                  has_header=args.header)
    lag_lo, lag_hi = _lag_range(args)
    fit = fit_method(args.method, ts, lag_lo, lag_hi, p_override=args.p,
                     p_cap=args.p_cap)
    payload = {
        "manifest": _manifest("fit", {
            "data": str(args.data), "method": args.method,
            "lag_lo": lag_lo, "lag_hi": lag_hi,
            "p_override": args.p, "p_cap": args.p_cap,
        }, None),
        "fit": _serialize_fit(fit),
    }
    outdir = _outdir(args)
    report_path = outdir / "fit_report.json"
    _write_json(report_path, payload)
    q_path = outdir / "q_hat.csv"
    f_path = outdir / "factors.csv"
    _write_matrix_csv(q_path, fit.q_hat)
    _write_matrix_csv(f_path, fit.factors)
    for path in (report_path, q_path, f_path):
        print(path)
    return 0


# ---------------------------------------------------------------------------
# rankscan


def _cmd_rankscan(args) -> int:
    mat = _read_matrix(args.matrix)
    scan = scan_model_order(mat, args.p_cap, n=args.n, k=mat.shape[0])
    payload = {
        "manifest": _manifest("rankscan", {
            "matrix": str(args.matrix), "n": args.n, "p_cap": scan.p_cap,
        }, None),
        "scan": {
            "epsilon": scan.epsilon,
            "p_hat": scan.p_hat,
            "p_cap": scan.p_cap,
            "candidates": [
                {"i": c.index, "gamma": c.gamma,
                 "gamma_next": c.gamma_next, "ratio": c.ratio,
                 "selected": c.index == scan.p_hat}
                for c in scan.candidates
            ],
        },
    }
    outdir = _outdir(args)
    report_path = outdir / "rankscan_report.json"
    _write_json(report_path, payload)
    table_path = outdir / "rankscan_table.csv"
    with open(table_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "gamma", "gamma_next", "ratio", "selected"])
        for c in scan.candidates:
            writer.writerow([c.index, repr(c.gamma), repr(c.gamma_next),
                             repr(c.ratio), int(c.index == scan.p_hat)])
    for path in (report_path, table_path):
        print(path)
    return 0


# ---------------------------------------------------------------------------
# rrqr


def _cmd_rrqr(args) -> int:
    mat = _read_matrix(args.matrix)
    rank = args.rank
    if args.alg != "gsqr" and rank is None:
        raise SystemExit2(f"--rank is required for --alg {args.alg}")
    sv = singular_values(mat)
    if args.alg == "gsqr":
        factors = gs_qr(mat)
        perm = list(range(mat.shape[1]))
        block = rank if rank is not None else min(mat.shape)
        summary = {"algorithm": "gsqr"}
    elif args.alg == "stewart2":
        factors, total = stewart2(gs_qr(mat), None, rank)
        perm = list(total.order)
        block = rank
        r22 = factors.r[rank:, rank:]
        summary = {
            "algorithm": "stewart2",
            "sigma_min_r11": float(singular_values(factors.r[:rank, :rank])[-1]),
            "sigma_max_r22": float(singular_values(r22)[0]) if r22.size else 0.0,
        }
    else:
        pivoting = {"qrcp": qr_cp, "hybrid1": hybrid1, "hybrid2": hybrid2,
                    "hybrid3": hybrid3}[args.alg]
        res = pivoting(mat, rank)
        factors = res.factors
        perm = list(res.perm.order)
        block = rank
        n = mat.shape[1]
        summary = {
            "algorithm": args.alg,
            "sigma_min_r11": res.r11_min_sv,
            "sigma_max_r22": res.r22_max_sv,
            "passes": res.passes,
        }
        if args.alg in ("hybrid1", "hybrid3") and rank <= sv.size:
            bound = float(sv[rank - 1]) / np.sqrt(rank * (n - rank + 1))
            summary["r11_lower_bound"] = bound
            summary["r11_bound_slack"] = (res.r11_min_sv / bound
                                          if bound > 0 else float("inf"))
        if args.alg in ("hybrid2", "hybrid3") and rank < sv.size:
            bound = float(sv[rank]) * np.sqrt((rank + 1) * (n - rank))
            summary["r22_upper_bound"] = bound
            summary["r22_bound_slack"] = (bound / res.r22_max_sv
                                          if res.r22_max_sv > 0
                                          else float("inf"))
    r = factors.r
    trailing = r[block:, block:]
    summary["r22_max_abs_entry"] = (float(np.abs(trailing).max())
                                    if trailing.size else 0.0)
    summary["sigma_top"] = float(sv[0])
    payload = {
        "manifest": _manifest("rrqr", {
            "matrix": str(args.matrix), "algorithm": args.alg, "rank": rank,
        }, None),
        "summary": summary,
    }
    outdir = _outdir(args)
    report_path = outdir / "rrqr_report.json"
    _write_json(report_path, payload)
    perm_path = outdir / "perm.csv"
    with open(perm_path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(perm)
    r_path = outdir / "r.csv"
    q_path = outdir / "q.csv"
    _write_matrix_csv(r_path, r)
    _write_matrix_csv(q_path, factors.q)
    for path in (report_path, perm_path, r_path, q_path):
        print(path)
    return 0


# ---------------------------------------------------------------------------
# roll


def _cmd_roll(args) -> int:
    ts = load_csv(args.data, orientation=args.orientation,
                  has_header=args.header)
    lag_lo, lag_hi = _lag_range(args)
    report = rolling_eval(ts, args.method, window=args.window,
                          refit_stride=args.stride, ar_order=args.ar,
                          eval_len=args.eval_len, lag_lo=lag_lo,
                          lag_hi=lag_hi, p_cap=args.p_cap)
    payload = {
        "manifest": _manifest("roll", {
            "data": str(args.data), "method": args.method,
            "window": args.window, "stride": args.stride, "ar": args.ar,
            "eval_len": args.eval_len, "lag_lo": lag_lo, "lag_hi": lag_hi,
            "p_cap": args.p_cap,
        }, None),
        "report": {
            "method": report.method,
            "p_hat_mean": report.p_hat_mean,
            "rmse_mean": report.rmse_mean,
            "fe": report.fe,
        },
    }
    outdir = _outdir(args)
    report_path = outdir / "roll_report.json"
    _write_json(report_path, payload)
    window_path = outdir / "per_window.csv"
    with open(window_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["start", "p_hat", "rmse"])
        for rec in report.per_window:
            writer.writerow([rec.start, rec.p_hat, repr(rec.rmse)])
    for path in (report_path, window_path):
        print(path)
    return 0


# ---------------------------------------------------------------------------
# parser plumbing


class SystemExit2(Exception):
    """Usage error discovered after argparse (maps to exit code 2)."""


def _positive(name):
    def convert(text):
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"{name} must be >= 1, got {value}")
        return value
    return convert


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrfactors",
        description="Factor-model estimation by rank-revealing QR of "
                    "stacked lag covariances, with EVD and PCA baselines.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sim = subs.add_parser("sim", help="run a Monte-Carlo scenario")
    sim.add_argument("--scenario", choices=["sim1", "sim2"], required=True)
    sim.add_argument("--k", type=_positive("--k"), required=True)
    sim.add_argument("--n", type=_positive("--n"), required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--trials", type=_positive("--trials"), default=100)
    sim.add_argument("--methods", default="rrqr,evd")
    sim.add_argument("--outputs", default="errors")
    sim.add_argument("--noise", choices=["iid", "hurst"], default="iid")
    sim.add_argument("--w", type=float, default=0.6)
    sim.add_argument("--noise-scale", type=float, default=0.1)
    sim.add_argument("--alpha1", type=float, default=0.5)
    sim.add_argument("--alpha2", type=float, default=0.5)
    sim.add_argument("--half-support", action="store_true")
    sim.add_argument("--p-override", type=_positive("--p-override"), default=None)
    sim.add_argument("--p-cap", type=_positive("--p-cap"), default=None)
    sim.add_argument("--threads", type=_positive("--threads"),
                     default=os.cpu_count())
    _add_lag_flags(sim)
    _add_outdir_flag(sim)
    sim.set_defaults(func=_cmd_sim)

    fit = subs.add_parser("fit", help="fit a factor model to a CSV panel")
    fit.add_argument("--data", required=True)
    fit.add_argument("--orientation", default="rows-are-series")
    fit.add_argument("--header", action="store_true")
    fit.add_argument("--method", choices=["rrqr", "evd", "pca"], default="rrqr")
    fit.add_argument("--p", type=_positive("--p"), default=None)
    fit.add_argument("--p-cap", "--p-max", dest="p_cap",
                     type=_positive("--p-cap"), default=None)
    _add_lag_flags(fit)
    _add_outdir_flag(fit)
    fit.set_defaults(func=_cmd_fit)

    scan = subs.add_parser("rankscan", help="rank-ratio table of a matrix file")
    scan.add_argument("--matrix", required=True)
    scan.add_argument("--n", type=_positive("--n"), required=True,
                      help="sample count behind the matrix (scales the floor)")
    scan.add_argument("--p-cap", type=_positive("--p-cap"), default=None)
    _add_outdir_flag(scan)
    scan.set_defaults(func=_cmd_rankscan)

    rrqr = subs.add_parser("rrqr", help="decompose a matrix file")
    rrqr.add_argument("--matrix", required=True)
    rrqr.add_argument("--alg", choices=["gsqr", "qrcp", "stewart2",
                                        "hybrid1", "hybrid2", "hybrid3"],
                      default="hybrid3")
    rrqr.add_argument("--rank", type=_positive("--rank"), default=None)
    _add_outdir_flag(rrqr)
    rrqr.set_defaults(func=_cmd_rrqr)

    roll = subs.add_parser("roll", help="rolling one-step forecast evaluation")
    roll.add_argument("--data", required=True)
    roll.add_argument("--orientation", default="rows-are-series")
    roll.add_argument("--header", action="store_true")
    roll.add_argument("--method", choices=["rrqr", "evd", "pca"], default="rrqr")
    roll.add_argument("--window", type=_positive("--window"), default=500)
    roll.add_argument("--stride", type=_positive("--stride"), default=10)
    roll.add_argument("--ar", type=_positive("--ar"), default=10)
    roll.add_argument("--eval-len", type=_positive("--eval-len"), default=400)
    roll.add_argument("--p-cap", "--p-max", dest="p_cap",
                      type=_positive("--p-cap"), default=None)
    _add_lag_flags(roll)
    _add_outdir_flag(roll)
    roll.set_defaults(func=_cmd_roll)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through.
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
