"""Reference figures for the benchmark README.

    python3 bench/reference.py --seed 1

prints, for the paper-cell panels of that seed: LAPACK's pivoted QR of
M~ (the floor a QR route could reach), one fit_rrqr for comparison, and
the hybrid3 pass count and time at each rank the scan visits. It then
prints the tracing overhead of every workload for which .bench_out/
holds both an untraced and a traced result of that seed: the traced
run's median operation time minus the untraced run's.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import qrfactors as qf  # noqa: E402
import qrfactors.factor_rrqr as factor_rrqr  # noqa: E402
import scipy.linalg  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def median_time(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def scan_passes(y: np.ndarray, lag_hi: int) -> list[tuple[int, int, float]]:
    """(rank, hybrid3 passes, seconds) for each rank fit_rrqr's scan visits."""
    seen = []
    original = factor_rrqr.hybrid3

    def recording(mat, p, init=None):
        t0 = time.perf_counter()
        res = original(mat, p, init=init)
        seen.append((p, res.passes, time.perf_counter() - t0))
        return res

    factor_rrqr.hybrid3 = recording
    try:
        qf.fit_rrqr(qf.TimeSeries(y), 1, lag_hi)
    finally:
        factor_rrqr.hybrid3 = original
    return seen


def overhead(seed: int) -> None:
    out = ROOT / ".bench_out"
    for workload in workloads.WORKLOADS:
        files = [out / f"{workload}-seed{seed}-trace{t}.json" for t in (0, 1)]
        if not all(f.is_file() for f in files):
            continue
        plain, traced = (json.loads(f.read_text())["details"]["operation_times_s"]
                         for f in files)
        for metric in plain:
            a, b = statistics.median(plain[metric]), statistics.median(traced[metric])
            print(f"overhead {workload} {metric}: untraced {a:.6f} s, traced "
                  f"{b:.6f} s, difference {b - a:+.6f} s ({(b - a) / a:+.1%})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    rng = np.random.default_rng([args.seed, 0])
    cell = workloads.PaperCell
    y = workloads.sim1_panel(rng, cell.K, cell.N)[0]
    exact = workloads.exact_sim1_panel(rng, cell.K, cell.N)[0]
    m_tilde = checks.PanelReference(y, 1, cell.LAGS).m_tilde
    lapack = median_time(lambda: scipy.linalg.qr(m_tilde, pivoting=True), 20)
    fit = median_time(lambda: qf.fit_rrqr(qf.TimeSeries(y), 1, cell.LAGS), 1)
    print(f"paper-cell M~ {m_tilde.shape[0]}x{m_tilde.shape[1]}: "
          f"scipy.linalg.qr(pivoting=True) {lapack:.4f} s (median of 20), "
          f"fit_rrqr {fit:.3f} s")
    for name, panel in (("noisy", y), ("exact-rank", exact)):
        rows = scan_passes(panel, cell.LAGS)
        print(f"{name} scan, rank: passes (seconds): " + ", ".join(
            f"{p}: {n} ({s:.3f})" for p, n, s in rows))
    overhead(args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
