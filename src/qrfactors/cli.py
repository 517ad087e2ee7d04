"""Command-line front end.

Subcommands: ``sim`` (Monte-Carlo scenario runs), ``fit`` (factor fit on
a CSV panel), ``rankscan`` (rank-ratio table of a matrix file), ``rrqr``
(matrix decomposition with a chosen pivoting strategy), ``roll``
(rolling one-step forecast evaluation).

Every subcommand ends in one writer, _emit: it resolves the output
directory (--outdir, else $QRFACTORS_OUTDIR, else .), writes
<subcommand>_report.json and one CSV file per table, and prints every
path it wrote. Every JSON report embeds a manifest with the resolved
configuration and the seed, so a report is a complete recipe for its
own reproduction. Report bodies are deterministic for a fixed seed; only
the manifest timestamp varies run to run. Exit codes: 0 success, 2 bad
usage, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .factor_rrqr import ModelOrderScan, scan_model_order
from .forecast_eval import METHODS, fit_method, rolling_eval
from .rrqr import (_check_rank, gs_qr, hybrid1, hybrid2, hybrid3, qr_cp,
                   singular_values, stewart2)
from .simgen import SimConfig, monte_carlo
from .tsdata import load_csv, read_matrix


def _manifest(subcommand: str, config: dict, seed: int | None) -> dict:
    """Reproducibility header embedded in every report."""
    return {"subcommand": subcommand, "config": config, "seed": seed,
            "version": __version__,
            "created_utc": datetime.now(timezone.utc).isoformat()}


def _sanitize(obj):
    """JSON has no Infinity/NaN tokens; carry them as strings."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(float(obj))
    return obj


def _emit(args, report_name: str, payload: dict, tables: dict) -> int:
    """Write <report_name>.json and, for each table (a list of rows),
    <name>.csv to the output directory; print every path; return 0."""
    outdir = Path(args.outdir or os.environ.get("QRFACTORS_OUTDIR") or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    paths = [outdir / f"{report_name}.json"]
    # json round-trips Python floats through their shortest exact repr,
    # which preserves all 17 significant digits.
    with open(paths[0], "w", encoding="utf-8") as fh:
        json.dump(_sanitize(payload), fh, indent=2, allow_nan=False)
        fh.write("\n")
    for name, rows in tables.items():
        paths.append(outdir / f"{name}.csv")
        with open(paths[-1], "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
    for path in paths:
        print(path)
    return 0


def _matrix_rows(matrix: np.ndarray) -> list:
    return [[repr(float(v)) for v in row] for row in np.atleast_2d(matrix)]


def _scan_dict(scan: ModelOrderScan, selected: bool) -> dict:
    return {
        "epsilon": scan.epsilon,
        "p_hat": scan.p_hat,
        "p_cap": scan.p_cap,
        "candidates": [
            {"i": c.index, "gamma": c.gamma,
             "gamma_next": c.gamma_next, "ratio": c.ratio,
             **({"selected": c.index == scan.p_hat} if selected else {})}
            for c in scan.candidates
        ],
    }


def _lag_range(args) -> tuple[int, int]:
    """Lags 1..m from --m, else --lag-lo..--lag-hi (1..2 by default)."""
    if args.m is None:
        return args.lag_lo or 1, args.lag_hi or 2
    if args.lag_lo is not None or args.lag_hi is not None:
        args.usage_error("--m cannot be combined with --lag-lo or --lag-hi "
                         "(--m M means lags 1..M)")
    return 1, args.m


# ---------------------------------------------------------------------------
# subcommands


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
    tables = {}
    if "ratios" in outputs:
        tables["ratio_curves"] = [["i", "mean_r", "std_r", "method"]] + [
            [i, repr(mean_r), repr(std_r), method]
            for method, agg in report["per_method"].items()
            for i, (mean_r, std_r) in enumerate(
                zip(agg.get("ratio_mean", []), agg.get("ratio_std", [])),
                start=1)]
    return _emit(args, "sim_report", {
        "manifest": _manifest("sim", {**asdict(config), "trials": args.trials,
                                      "methods": methods, "outputs": outputs},
                              config.seed),
        "report": report,
    }, tables)


def _cmd_fit(args) -> int:
    lag_lo, lag_hi = _lag_range(args)
    ts = load_csv(args.data, orientation=args.orientation,
                  has_header=args.header)
    fit = fit_method(args.method, ts, lag_lo, lag_hi, p_override=args.p,
                     p_cap=args.p_cap)
    body = {
        "method": fit.method,
        "p_hat": fit.p_hat,
        "diagnostics": {k: float(v) for k, v in fit.diagnostics.items()},
    }
    if fit.scan is not None:
        body["scan"] = _scan_dict(fit.scan, selected=False)
    return _emit(args, "fit_report", {
        "manifest": _manifest("fit", {
            "data": str(args.data), "method": args.method,
            "lag_lo": lag_lo, "lag_hi": lag_hi,
            "p_override": args.p, "p_cap": args.p_cap,
        }, None),
        "fit": body,
    }, {"q_hat": _matrix_rows(fit.q_hat), "factors": _matrix_rows(fit.factors)})


def _cmd_rankscan(args) -> int:
    mat = read_matrix(args.matrix)
    scan = scan_model_order(mat, args.p_cap, n=args.n)
    return _emit(args, "rankscan_report", {
        "manifest": _manifest("rankscan", {
            "matrix": str(args.matrix), "n": args.n, "p_cap": scan.p_cap,
        }, None),
        "scan": _scan_dict(scan, selected=True),
    }, {"rankscan_table": [["i", "gamma", "gamma_next", "ratio", "selected"]] + [
        [c.index, repr(c.gamma), repr(c.gamma_next), repr(c.ratio),
         int(c.index == scan.p_hat)] for c in scan.candidates]})


def _cmd_rrqr(args) -> int:
    mat = read_matrix(args.matrix)
    rank = args.rank
    if args.alg != "gsqr" and rank is None:
        args.usage_error(f"--rank is required for --alg {args.alg}")
    sv = singular_values(mat)
    if args.alg == "gsqr":
        block = (min(mat.shape) if rank is None
                 else _check_rank("rank", rank, min(mat.shape)))
        factors = gs_qr(mat)
        perm = list(range(mat.shape[1]))
        summary = {"algorithm": "gsqr"}
    else:
        pivoting = {"qrcp": qr_cp, "stewart2": stewart2, "hybrid1": hybrid1,
                    "hybrid2": hybrid2, "hybrid3": hybrid3}[args.alg]
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
            bound = float(sv[rank - 1]) / math.sqrt(rank * (n - rank + 1))
            summary["r11_lower_bound"] = bound
            summary["r11_bound_slack"] = (res.r11_min_sv / bound
                                          if bound > 0 else float("inf"))
        if args.alg in ("hybrid2", "hybrid3") and rank < sv.size:
            bound = float(sv[rank]) * math.sqrt((rank + 1) * (n - rank))
            summary["r22_upper_bound"] = bound
            summary["r22_bound_slack"] = (bound / res.r22_max_sv
                                          if res.r22_max_sv > 0
                                          else float("inf"))
    r = factors.r
    trailing = r[block:, block:]
    summary["r22_max_abs_entry"] = (float(np.abs(trailing).max())
                                    if trailing.size else 0.0)
    summary["sigma_top"] = float(sv[0])
    return _emit(args, "rrqr_report", {
        "manifest": _manifest("rrqr", {
            "matrix": str(args.matrix), "algorithm": args.alg, "rank": rank,
        }, None),
        "summary": summary,
    }, {"perm": [perm], "r": _matrix_rows(r), "q": _matrix_rows(factors.q)})


def _cmd_roll(args) -> int:
    lag_lo, lag_hi = _lag_range(args)
    ts = load_csv(args.data, orientation=args.orientation,
                  has_header=args.header)
    report = rolling_eval(ts, args.method, window=args.window,
                          refit_stride=args.stride, ar_order=args.ar,
                          eval_len=args.eval_len, lag_lo=lag_lo,
                          lag_hi=lag_hi, p_cap=args.p_cap)
    return _emit(args, "roll_report", {
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
    }, {"per_window": [["start", "p_hat", "rmse"]] + [
        [rec.start, rec.p_hat, repr(rec.rmse)] for rec in report.per_window]})


# ---------------------------------------------------------------------------
# parser plumbing


def _positive(name):
    def convert(text):
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"{name} must be >= 1, got {value}")
        return value
    return convert


def _add_lag_flags(sub) -> None:
    sub.add_argument("--m", type=_positive("--m"), default=None,
                     help="shorthand for lags 1..m")
    sub.add_argument("--lag-lo", type=_positive("--lag-lo"), default=None)
    sub.add_argument("--lag-hi", type=_positive("--lag-hi"), default=None)
    sub.set_defaults(usage_error=sub.error)


def _add_outdir_flag(sub) -> None:
    sub.add_argument("--outdir", default=None,
                     help="output directory (default: $QRFACTORS_OUTDIR or .)")


def _add_panel_flags(sub) -> None:
    """Flags shared by the subcommands that fit a CSV panel."""
    sub.add_argument("--data", required=True)
    sub.add_argument("--orientation", default="rows-are-series")
    sub.add_argument("--header", action="store_true")
    sub.add_argument("--method", choices=METHODS, default="rrqr")
    sub.add_argument("--p-cap", "--p-max", dest="p_cap",
                     type=_positive("--p-cap"), default=None)
    _add_lag_flags(sub)
    _add_outdir_flag(sub)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once: parse_args keeps no state between calls."""
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
    sim.add_argument("--threads", type=_positive("--threads"), default=1,
                     help="worker processes for the trials (default 1: "
                          "serial, no pool)")
    _add_lag_flags(sim)
    _add_outdir_flag(sim)
    sim.set_defaults(func=_cmd_sim)

    fit = subs.add_parser("fit", help="fit a factor model to a CSV panel")
    _add_panel_flags(fit)
    fit.add_argument("--p", type=_positive("--p"), default=None)
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
    rrqr.set_defaults(func=_cmd_rrqr, usage_error=rrqr.error)

    roll = subs.add_parser("roll", help="rolling one-step forecast evaluation")
    _add_panel_flags(roll)
    roll.add_argument("--window", type=_positive("--window"), default=500)
    roll.add_argument("--stride", type=_positive("--stride"), default=10)
    roll.add_argument("--ar", type=_positive("--ar"), default=10)
    roll.add_argument("--eval-len", type=_positive("--eval-len"), default=400)
    roll.set_defaults(func=_cmd_roll)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through.
        return int(exc.code) if exc.code is not None else 0
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
