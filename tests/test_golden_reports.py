"""CLI report bodies pinned against committed golden files.

Each case runs one ``qrfactors`` command on a committed input and
compares every file it writes with ``tests/golden/<case>/``. JSON bodies
are compared without the manifest timestamp, CSV files cell by cell.
Keys and their order, ints and strings must match exactly; floats must
agree to 1e-12 relative.

To list every float that differs from the golden files, writing
nothing (file, key path or cell, golden value, new value, relative
difference):

    PYTHONPATH=src python tests/test_golden_reports.py --diff [case ...]

To regenerate after an intended report change:

    PYTHONPATH=src python tests/test_golden_reports.py [case ...]
"""

import csv
import json
import math
import shutil
import sys
from pathlib import Path

import pytest

from qrfactors.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"
_RTOL = 1e-12

_SIM_ALL = ["--trials", "3", "--threads", "1", "--methods", "rrqr,evd,pca",
            "--outputs", "errors,ratios,rmse,forecast"]
_ROLL = ["roll", "--data", "panel.csv", "--window", "100", "--stride", "20",
         "--eval-len", "60", "--ar", "3"]

CASES = {
    "sim1": ["sim", "--scenario", "sim1", "--k", "12", "--n", "120",
             "--seed", "3", "--m", "3", *_SIM_ALL],
    "sim2_hurst": ["sim", "--scenario", "sim2", "--noise", "hurst",
                   "--k", "16", "--n", "120", "--seed", "4", *_SIM_ALL],
    "sim1_p_override": ["sim", "--scenario", "sim1", "--k", "12",
                        "--n", "120", "--seed", "5", "--p-override", "1",
                        *_SIM_ALL],
    "roll_rrqr": [*_ROLL, "--method", "rrqr"],
    "roll_evd": [*_ROLL, "--method", "evd"],
    "roll_pca": [*_ROLL, "--method", "pca"],
    "rankscan": ["rankscan", "--matrix", "matrix.csv", "--n", "200"],
    "fit_rrqr": ["fit", "--data", "panel.csv"],
    "fit_evd_p2": ["fit", "--data", "panel.csv", "--method", "evd",
                   "--p", "2"],
    "rrqr_hybrid3": ["rrqr", "--matrix", "matrix.csv", "--alg", "hybrid3",
                     "--rank", "3"],
}


def _run(case: str, workdir: Path, monkeypatch) -> Path:
    """Run a case inside workdir (inputs copied in, so the manifest holds
    relative paths) and return the directory it wrote to."""
    for src in INPUTS.iterdir():
        shutil.copy(src, workdir / src.name)
    monkeypatch.chdir(workdir)
    assert main([*CASES[case], "--outdir", "out"]) == 0
    return workdir / "out"


def _load(path: Path):
    if path.suffix == ".json":
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        del payload["manifest"]["created_utc"]
        return payload
    with open(path, newline="", encoding="utf-8") as fh:
        return [[_cell(c) for c in row] for row in csv.reader(fh)]


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _differing(got, want, where: str):
    """Yield (where, got, want) for every leaf of `got` that differs from
    `want`, where being its key path or cell. Types, keys and their
    order, and lengths must match."""
    assert type(got) is type(want), f"{where}: {got!r} vs {want!r}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{where}: keys {list(got)} vs {list(want)}"
        for key in want:
            yield from _differing(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length {len(got)} vs {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            yield from _differing(g, w, f"{where}[{i}]")
    elif got != want:
        yield where, got, want


def _case_leaves(case: str, out: Path):
    """Differing leaves of every file a case wrote in `out`, each where
    prefixed by its file."""
    want_dir = GOLDEN / case
    assert sorted(p.name for p in out.iterdir()) == sorted(
        p.name for p in want_dir.iterdir())
    for want in sorted(want_dir.iterdir()):
        yield from _differing(_load(out / want.name), _load(want),
                              f"{case}/{want.name}")


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, tmp_path, monkeypatch):
    out = _run(case, tmp_path, monkeypatch)
    for where, got, want in _case_leaves(case, out):
        assert isinstance(want, float) and math.isclose(
            got, want, rel_tol=_RTOL, abs_tol=0.0), f"{where}: {got!r} vs {want!r}"


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    diff = sys.argv[1:2] == ["--diff"]
    for name in sys.argv[1 + diff:] or sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp, \
                pytest.MonkeyPatch.context() as mp:
            with contextlib.redirect_stdout(io.StringIO()):
                written = _run(name, Path(tmp), mp)
            if diff:
                for where, got, want in _case_leaves(name, written):
                    rel = (f"{abs(got - want) / abs(want):.3e}"
                           if isinstance(want, float) and want else "-")
                    print(f"{where}\t{want!r}\t{got!r}\t{rel}")
                continue
            shutil.rmtree(GOLDEN / name, ignore_errors=True)
            shutil.copytree(written, GOLDEN / name)
        print(GOLDEN / name)
