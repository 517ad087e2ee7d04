"""Property tests for the pivoted-QR kernels on awkward inputs.

Inputs have exact rank deficiency, duplicated (exactly tied) columns,
orthogonal columns of equal norm, zero columns, and scales from 1e-200
to 1e200. Every kernel must return, reproduce its permuted input,
keep Q orthonormal and R's diagonal non-negative, and leave no more
nonzero pivots on that diagonal than the input has rank: a pivoted
kernel's leading pivots up to the rank are positive and every later
one is exactly 0.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrfactors import rrqr
from qrfactors.rrqr import gs_qr, hybrid1, hybrid2, hybrid3, qr_cp, stewart2

from oracles import (plain_hybrid_sweeps,
                     projected_strong_exchange, result_bits,
                     whole_r_weak_exchange)

# Deterministic and bounded, so the suite's run time barely moves.
_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                     database=None)
_SCALES = [1e-200, 1e-150, 1.0, 1e150, 1e200]


@st.composite
def awkward(draw, full_rank=False, deficient=False):
    """(matrix, rank): a K x n matrix and its exact rank.

    full_rank keeps the rank at min(K, n); deficient keeps it below.
    """
    k = draw(st.integers(2, 7))
    n = draw(st.integers(2, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if not deficient and draw(st.booleans()):
        # orthogonal columns of one norm: every pivot choice is a tie
        a = np.zeros((k, n))
        cols = rng.permutation(n)[:min(k, n)]
        a[np.arange(cols.size), cols] = 3.0
    else:
        top = min(k, n) - 1 if deficient else min(k, n)
        r = min(k, n) if full_rank else draw(st.integers(1, top))
        a = rng.standard_normal((k, r)) @ rng.standard_normal((r, n))
    if not full_rank:
        if draw(st.booleans()):
            src, dst = rng.choice(n, size=2, replace=False)
            a[:, dst] = a[:, src]
        if draw(st.booleans()):
            a[:, rng.integers(n)] = 0.0
    svs = np.linalg.svd(a, compute_uv=False)
    rank = int((svs > 1e-10 * svs[0]).sum())
    return a * draw(st.sampled_from(_SCALES)), rank


def _check(a, perm, factors, rank, pivots=None):
    """The invariants every kernel promises, in units of the input scale.

    pivots is how many leading columns the kernel chose; None for the
    unpivoted gs_qr, where a deflated pivot's Q column can absorb a later
    column's direction, so only the upper bound holds.
    """
    q, r, diag = factors.q, factors.r, factors.diag
    s = np.abs(a).max() or 1.0
    permuted = a[:, list(perm)] / s
    assert q.shape == (a.shape[0], a.shape[0])
    assert np.linalg.norm(q.T @ q - np.eye(q.shape[0])) <= 1e-10
    assert np.linalg.norm(permuted - q @ (r / s)) \
        <= 1e-10 * max(np.linalg.norm(permuted), 1.0)
    assert np.allclose(np.tril(r, -1), 0.0, atol=0.0)
    assert (diag >= 0.0).all()
    assert np.count_nonzero(diag) <= rank
    if pivots is not None:
        assert (diag[:min(pivots, rank)] > 0.0).all()


@_SETTINGS
@given(awkward())
def test_gs_qr_properties(case):
    a, rank = case
    _check(a, range(a.shape[1]), gs_qr(a), rank)


@_SETTINGS
@given(awkward(), st.data())
def test_qr_cp_properties(case, data):
    a, rank = case
    steps = data.draw(st.integers(1, min(a.shape)))
    res = qr_cp(a, steps)
    _check(a, res.perm.order, res.factors, rank, pivots=steps)


@_SETTINGS
@given(awkward(), st.data())
def test_hybrid1_and_hybrid2_properties(case, data):
    a, rank = case
    p = data.draw(st.integers(1, min(a.shape) - 1))
    for fn, boundary in ((hybrid1, p), (hybrid2, p + 1)):
        res = fn(a, p)
        _check(a, res.perm.order, res.factors, rank, pivots=boundary)


@_SETTINGS
@given(awkward(), st.data())
def test_hybrid3_properties_and_bounds(case, data):
    a, rank = case
    k, n = a.shape
    p = data.draw(st.integers(1, min(k, n) - 1))
    res = hybrid3(a, p)
    _check(a, res.perm.order, res.factors, rank, pivots=p + 1)
    svs = np.linalg.svd(a, compute_uv=False)
    slack = 1e-10 * svs[0]
    assert res.r11_min_sv >= svs[p - 1] / np.sqrt(p * (n - p + 1)) \
        * (1 - 1e-9) - slack
    assert res.r22_max_sv <= svs[p] * np.sqrt((p + 1) * (n - p)) \
        * (1 + 1e-9) + slack


@_SETTINGS
@given(awkward(full_rank=True), st.data())
def test_stewart2_properties(case, data):
    a, rank = case
    size = min(a.shape)
    target = data.draw(st.integers(1, size))
    # column pivoting first, so the leading triangle is invertible
    start = qr_cp(a, size)
    out = stewart2(a, target, init=start.perm)
    _check(a, out.perm.order, out.factors, rank, pivots=size)


@_SETTINGS
@given(awkward(deficient=True))
def test_stewart2_rejects_rank_deficient_triangles(case):
    a, rank = case
    assert rank < min(a.shape)
    try:
        stewart2(a, 1)
    except ValueError as err:
        assert "singular" in str(err)
    else:
        raise AssertionError("a rank-deficient leading triangle was accepted")


@_SETTINGS
@given(awkward(), st.data())
def test_downdated_picks_are_the_projected_picks(case, data):
    # wherever the downdated norms settle a column-pivot exchange, the
    # order it leaves is the one projecting the whole matrix leaves
    a, _ = case
    search = rrqr._PivotSearch(a)
    order = data.draw(st.permutations(range(a.shape[1])))
    for i in range(1, min(a.shape)):
        q, _ = rrqr._qr(search.a, order[:i], "economic", search.tol)
        pick = rrqr._downdated_pick(search, order, i, q, q.T @ search.a)
        if pick is None:
            continue
        got, want = list(order), list(order)
        got[i], got[i + pick] = got[i + pick], got[i]
        projected_strong_exchange(search, want, i + 1)
        assert got == want, i


@_SETTINGS
@given(awkward(), st.data())
def test_sweeps_are_the_plain_loops(case, data):
    # on ties, zero columns and scales near 1e+-200, a sweep that ends at
    # the pass its inverse-row-norm exchange leaves alone gives the order,
    # swaps, passes and R bits of one that runs the confirming pass
    a, _ = case
    p = data.draw(st.integers(1, min(a.shape) - 1))
    start = data.draw(st.permutations(range(a.shape[1])))

    def outputs(sweeps):
        search = rrqr._PivotSearch(a)
        cap = rrqr._PASS_CAP_FACTOR * a.shape[1]
        runs = []
        for boundary in (p, p + 1):
            order = list(start)
            runs.append((sweeps(search, order, boundary, cap), order))
        return runs + [result_bits(fn(a, p))
                       for fn in (hybrid1, hybrid2, hybrid3)]

    got = outputs(rrqr._hybrid_sweeps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rrqr, "_hybrid_sweeps", plain_hybrid_sweeps)
        mp.setattr(rrqr, "_weak_exchange", whole_r_weak_exchange)
        assert got == outputs(plain_hybrid_sweeps)
