"""README's Python examples run as written and give what their comments
state."""

import re
from pathlib import Path

import numpy as np
from numpy.testing import assert_allclose

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    return re.findall(r"```python\n(.*?)```", text, re.S)


def _run(block: str) -> dict:
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    return namespace


def _comment(block: str, code: str) -> str:
    """The comment on the example line whose code is `code`."""
    for line in block.splitlines():
        head, _, comment = line.partition("#")
        if head.strip() == code:
            return comment.strip()
    raise AssertionError(f"README has no example line {code!r}")


def test_quick_start_gives_the_values_it_states():
    block = _python_blocks()[0]
    ns = _run(block)
    fit = ns["fit"]
    assert fit.p_hat == 1
    assert _comment(block, "fit.p_hat") == "1"
    assert fit.q_hat.shape == (20, 1)
    assert _comment(block, "fit.q_hat.shape").startswith("(20, 1) ")
    assert fit.factors.shape == (1, 600)
    assert _comment(block, "fit.factors.shape").startswith("(1, 600) ")
    ratios = fit.scan.ratios()[:4].round(2)
    assert ratios.tolist() == [59.11, 1.27, 1.05, 1.02]
    assert _comment(block, "fit.scan.ratios()[:4].round(2)") == str(ratios)
    keys = ["r11_min_sv", "r22_max_sv", "passes", "epsilon"]
    assert list(dict(fit.diagnostics)) == keys
    assert _comment(block, "dict(fit.diagnostics)") == ", ".join(keys)
    assert ns["fit_evd"](ns["ds"].y).p_hat == 1
    assert _comment(block, "fit_evd(ds.y).p_hat").startswith("1, ")
    assert np.isfinite(ns["rep"].fe)


def test_hybrid3_example_gives_the_values_it_states():
    block = _python_blocks()[1]
    ns = _run(block)
    res, a, q, r = ns["res"], ns["a"], ns["q"], ns["r"]
    perm = list(res.perm.order)
    assert sorted(perm) == list(range(12))
    assert res.assumed_rank == 3
    # block singular values: the smallest of R11's, the largest of R22's
    svs = [np.linalg.svd(r[:3, :3], compute_uv=False)[-1],
           np.linalg.svd(r[3:, 3:], compute_uv=False)[0]]
    assert_allclose([res.r11_min_sv, res.r22_max_sv], svs, rtol=1e-13)
    assert _comment(block, "q, r = res.factors.q, res.factors.r") \
        == "q @ r == a[:, perm]"
    assert_allclose(q @ r, a[:, perm], rtol=0, atol=1e-13 * np.abs(a).max())
