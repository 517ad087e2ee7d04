"""qrfactors benchmark: paper-cell fits, rolling forecasts and the
Monte-Carlo study, timed end to end and, in a traced run, per layer.

Run from the repository root:

    python3 bench/run.py --workload paper-cell --seed 1 --seconds 20 --trace 0

--workload is paper-cell, rolling, montecarlo, or all (each workload in
its own process, one after the other). The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. The line before it records the environment. Each run also
writes its result, with every operation time, to .bench_out/.
"""

import os

# Pin BLAS to one thread before numpy loads, here and in every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_ROOT = ROOT / ".bench_work"
WORKLOAD_NAMES = ("paper-cell", "rolling", "montecarlo")
# setup_s is the median of the run's own set-up and this many more, each
# in a fresh process, so imports and caches start cold every time.
EXTRA_SETUPS = 2
CHILD_TIMEOUT_S = 170


def setup(workload: str, seed: int, workdir: Path):
    """Imports, input generation, CSV writing and warm-up, timed."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads  # loads numpy, scipy and qrfactors

    wl = workloads.WORKLOADS[workload](seed, workdir)
    wl.warm_up()
    return time.perf_counter() - t0, wl


def child(args: list[str]) -> str:
    """Run this script in a fresh process and return its last output line."""
    done = subprocess.run([sys.executable, str(BENCH_DIR / "run.py")] + args,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"child run {args} exited with {done.returncode}")
    return lines[-1]


def environment() -> dict:
    import numpy
    import scipy

    config = numpy.show_config(mode="dicts")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": config.get("Build Dependencies", {}).get("blas", {}),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads_env": {v: os.environ[v] for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")},
    }


def schedule(operations) -> list:
    """One round: each operation's repeats spread evenly over the round,
    so a cheap operation is sampled all through it, not in one burst."""
    n = len(operations)
    slots = sorted(((k + i / n) / op.repeat, i)
                   for i, op in enumerate(operations) for k in range(op.repeat))
    return [operations[i] for _, i in slots]


def trimmed_mean(samples: list[float]) -> float:
    """Mean of the samples left after dropping the lowest and highest
    tenth. The host's speed drifts in phases of tens of seconds, and a
    mean over the run follows the share of slow time smoothly where a
    median jumps between the fast and the slow level."""
    ordered = sorted(samples)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def measure(operations, seconds: float, tracer):
    """Whole rounds of the operations until `seconds` have passed; at
    least one round. Only the calls are timed, not their checks."""
    times = {op.metric: [] for op in operations}
    attempted = failed = rounds = 0
    problems = []
    order = schedule(operations)
    if tracer is not None:
        tracer.start()
    deadline = time.perf_counter() + seconds
    while rounds == 0 or time.perf_counter() < deadline:
        for op in order:
            attempted += 1
            try:
                t0 = time.perf_counter()
                out = op.run()
                elapsed = time.perf_counter() - t0
                found = op.check(out)
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                found = [f"{type(exc).__name__}: {exc}"]
            else:
                times[op.metric].append(elapsed / op.per)
            if found:
                failed += 1
                problems.extend(f"{op.metric}: {p}" for p in found)
        rounds += 1
    return times, attempted, failed, rounds, problems


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = WORK_ROOT / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tracer = None
    try:
        setup_s, wl = setup(workload, seed, workdir)
        import qrfactors

        if Path(qrfactors.__file__).resolve().parent != SRC / "qrfactors":
            raise RuntimeError(f"qrfactors loaded from {qrfactors.__file__}, "
                               f"not from {SRC}")
        setups = [setup_s]
        if not trace:
            for _ in range(EXTRA_SETUPS):
                line = child(["--setup-only", "--workload", workload,
                              "--seed", str(seed)])
                setups.append(json.loads(line)["setup_s"])
        operations = wl.operations()
        if trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            wl.count = tracer.count
        times, attempted, failed, rounds, problems = measure(operations, seconds,
                                                             tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        from tracer import metric_units

        values = tracer.metrics(rounds)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in metric_units().items()}
    else:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
        for name, samples in times.items():
            metrics[name] = {"value": trimmed_mean(samples) if samples else 0.0,
                             "unit": "s"}
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = {"value": peak, "unit": "MB"}
    details = {"workload": workload, "seed": seed, "seconds": seconds,
               "trace": int(trace), "rounds": rounds, "problems": problems,
               "setups_s": setups, "operation_times_s": times,
               "environment": environment()}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    if trace:
        names = sorted({s[0] for s in tracer.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(OUT_DIR / f"{workload}-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"names": names,
                       "spans": [[index[n], t0, t1, parent]
                                 for n, t0, t1, parent in tracer.spans]}, fh)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "details": details}, fh, indent=1)
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print("environment: " + json.dumps(details["environment"]))
    return result


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process; metric names get the workload
    as a prefix."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        line = child(["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(int(trace))])
        print(f"{workload}: {line}")
        result = json.loads(line)
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}/{name}"] = metric
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "qrfactors" / "__init__.py").is_file():
        print(f"error: no qrfactors source under {SRC}; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    if args.setup_only:
        workdir = WORK_ROOT / f"setup-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            seconds = setup(args.workload, args.seed, workdir)[0]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": seconds}))
        return 0
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
