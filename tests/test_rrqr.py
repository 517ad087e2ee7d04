"""Pivoted-QR engine against naive refactorizing references."""

from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import qr

from qrfactors import rrqr
from qrfactors.covariance import build_augmented
from qrfactors.factor_rrqr import fit_rrqr, scan_model_order
from qrfactors.rrqr import (Permutation, RrqrIterationError, gs_qr,
                            hybrid1, hybrid2, hybrid3, qr_cp, singular_values,
                            stewart2)
from qrfactors.simgen import SimConfig, gen_sim1, gen_sim2
from qrfactors.tsdata import _rescaled

from oracles import (abs_r_diag, col_norms, dnrm2_first_pivot,
                     exact_rank_three, gathered_strong_exchange,
                     interlacing_holds, matrix_with_spectrum,
                     naive_pivot_order, old_hybrid3,
                     plain_hybrid_sweeps, projected_strong_exchange,
                     result_bits, scipy_inverse_row_norms, scipy_qr,
                     svd2_closed, two_pass_scale, whole_r_weak_exchange)

SHAPES = [(9, 4), (6, 6), (4, 10), (5, 8)]


def _ortho_defect(q):
    return np.linalg.norm(q.T @ q - np.eye(q.shape[1]))


# ------------------------------------------------------------------
# unpivoted QR


@pytest.mark.parametrize("shape", SHAPES)
def test_gs_qr_factorizes(shape):
    rng = np.random.default_rng(hash(shape) % 2**32)
    a = rng.standard_normal(shape)
    out = gs_qr(a)
    k = shape[0]
    assert out.q.shape == (k, k)
    assert _ortho_defect(out.q) <= 1e-10
    assert np.linalg.norm(a - out.q @ out.r) <= 1e-10 * np.linalg.norm(a)
    # triangular below the main diagonal
    assert_allclose(np.tril(out.r, -1), 0.0, atol=1e-16)
    assert (out.diag >= 0.0).all()


def test_gs_qr_deflates_rank_deficient_columns():
    rng = np.random.default_rng(11)
    a = matrix_with_spectrum(rng, 5, 7, [3.0, 1.0])   # exact rank 2
    out = gs_qr(a)
    assert_array_equal(out.diag[2:], 0.0)
    assert _ortho_defect(out.q) <= 1e-10     # Q stays a full frame
    assert np.linalg.norm(a - out.q @ out.r) <= 1e-10 * np.linalg.norm(a)


def test_gs_qr_zero_matrix():
    out = gs_qr(np.zeros((3, 5)))
    assert_array_equal(out.diag, 0.0)
    assert_allclose(out.r, 0.0, atol=1e-16)
    assert _ortho_defect(out.q) <= 1e-12


@pytest.mark.parametrize("bad", [np.ones(3), np.zeros((0, 2)),
                                 [[1.0, np.nan]]])
def test_gs_qr_rejects_bad_input(bad):
    with pytest.raises(ValueError):
        gs_qr(bad)


# ------------------------------------------------------------------
# greedy column pivoting


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_qr_cp_matches_naive_refactorizing_pivoter(shape, seed):
    rng = np.random.default_rng(100 * seed + hash(shape) % 1000)
    a = rng.standard_normal(shape)
    steps = min(shape)
    res = qr_cp(a, steps)
    want = naive_pivot_order(a, steps)
    assert list(res.perm.order[:steps]) == want[:steps]
    assert_allclose(res.factors.diag[:steps],
                    abs_r_diag(a, want)[:steps], rtol=1e-10)


def _duplicated_before_rank():
    # column 4 repeats column 2, the runner-up behind column 0: the two
    # tie exactly at step 1, and the copy's residual is round-off after
    rng = np.random.default_rng(5)
    a = rng.standard_normal((7, 6))
    a[:, 0] *= 10.0
    a[:, 2] *= 5.0
    a[:, 4] = a[:, 2]
    return a


@pytest.mark.parametrize("a,rank,lead", [
    (np.eye(4), 4, [0, 1, 2, 3]),
    (np.diag([1.0, 2.0, 2.0, 1.0]), 4, [1, 2, 0, 3]),
    (_duplicated_before_rank(), 5, [0, 2]),
], ids=["eye", "diag1221", "duplicated"])
def test_qr_cp_exact_ties_keep_lowest_index(a, rank, lead):
    # only the pivots up to the numerical rank are pinned; past it every
    # residual is round-off
    order = list(qr_cp(a, rank).perm.order)
    assert order[:len(lead)] == lead
    assert order[:rank] == naive_pivot_order(a, rank)[:rank]


def test_qr_cp_reconstructs_permuted_matrix():
    rng = np.random.default_rng(21)
    a = rng.standard_normal((6, 9))
    res = qr_cp(a, 6)
    permuted = a[:, list(res.perm.order)]
    assert np.linalg.norm(permuted - res.factors.q @ res.factors.r) \
        <= 1e-10 * np.linalg.norm(a)


def test_qr_cp_diag_is_nonincreasing():
    rng = np.random.default_rng(22)
    for _ in range(20):
        a = rng.standard_normal((7, 11))
        diag = qr_cp(a, 7).factors.diag
        assert (np.diff(diag) <= 1e-12 * diag[0]).all()


def test_qr_cp_diag_lower_bounds():
    # gamma_i >= sigma_i / sqrt(n - i + 1), a pivoting guarantee
    rng = np.random.default_rng(23)
    for _ in range(20):
        a = rng.standard_normal((6, 10))
        n = a.shape[1]
        diag = qr_cp(a, 6).factors.diag
        svs = np.linalg.svd(a, compute_uv=False)
        for i in range(1, 7):
            floor = svs[i - 1] / np.sqrt(n - i + 1)
            assert diag[i - 1] >= floor * (1 - 1e-9)


def test_qr_cp_trailing_block_sandwich():
    # ||R22|| >= gamma_{s+1} >= ||R22|| / sqrt(n - s)
    rng = np.random.default_rng(24)
    for _ in range(20):
        a = rng.standard_normal((6, 9))
        res = qr_cp(a, 6)
        r, diag, n = res.factors.r, res.factors.diag, a.shape[1]
        for s in range(6):
            r22 = np.linalg.norm(r[s:, s:], 2)
            assert diag[s] <= r22 * (1 + 1e-9)
            assert diag[s] >= r22 / np.sqrt(n - s) * (1 - 1e-9)


def test_qr_cp_step_bounds_rejected():
    a = np.eye(4)
    with pytest.raises(ValueError):
        qr_cp(a, 0)
    with pytest.raises(ValueError):
        qr_cp(a, 5)


# ------------------------------------------------------------------
# Stewart reverse pivoting


def test_stewart2_is_its_own_fixed_point():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((6, 6)) + 3.0 * np.eye(6)
    out = stewart2(a, 3)
    again = stewart2(a, 3, init=out.perm)
    assert again.perm.order == out.perm.order
    assert_allclose(again.factors.diag, out.factors.diag, rtol=1e-12)


def test_stewart2_composes_permutations():
    rng = np.random.default_rng(32)
    a = rng.standard_normal((5, 5)) + 2.0 * np.eye(5)
    res = qr_cp(a, 5)
    out = stewart2(a, 2, init=res.perm)
    permuted = a[:, list(out.perm.order)]
    assert np.linalg.norm(permuted - out.factors.q @ out.factors.r) \
        <= 1e-9 * np.linalg.norm(a)


def test_stewart2_from_init_is_stewart2_of_the_permuted_matrix():
    # init only sets where the columns start: the picks are those of the
    # matrix whose columns are already in that order, bit for bit
    rng = np.random.default_rng(36)
    for shape in [(6, 6), (8, 5), (5, 9)]:
        a = rng.standard_normal(shape)
        for _ in range(5):
            p = Permutation(tuple(rng.permutation(shape[1]).tolist()))
            for rank in range(1, min(shape) + 1):
                got = stewart2(a, rank, init=p)
                want = stewart2(a[:, list(p.order)], rank)
                assert got.perm.order == tuple(p.order[t]
                                               for t in want.perm.order)
                assert result_bits(got)[1:] == result_bits(want)[1:]


def test_stewart2_rejects_singular_leading_block():
    rng = np.random.default_rng(33)
    a = matrix_with_spectrum(rng, 5, 5, [2.0, 1.0])   # rank 2 of 5
    with pytest.raises(ValueError, match="singular"):
        stewart2(a, 2)


def test_stewart2_rejects_leading_block_singular_below_diagonal():
    # sigma_8 / sigma_1 = 1e-15 with no tiny diagonal entry in R; the
    # guard must see the true ratio, not the 1e-8 noise floor of a
    # Gram-matrix route.
    rng = np.random.default_rng(34)
    for _ in range(200):
        a = matrix_with_spectrum(rng, 8, 8, [1.0] * 7 + [1e-15])
        with pytest.raises(ValueError, match="singular"):
            stewart2(a, 4)


def test_stewart2_rank_bounds():
    a = np.eye(4)
    with pytest.raises(ValueError):
        stewart2(a, 0)
    with pytest.raises(ValueError):
        stewart2(a, 5)


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_stewart2_certifies_its_picks_at_extreme_scale(scale):
    # stewart2 pivots on the unit-scaled copy of its matrix, so its
    # inverse-row-norm picks, and its order, are the unscaled matrix's
    rng = np.random.default_rng(35)
    for _ in range(10):
        a = rng.standard_normal((8, 6))
        perm = stewart2(a * scale, 2).perm
        assert perm.order == stewart2(a, 2).perm.order


def test_stewart2_guard_and_first_exchange_share_one_qr(monkeypatch):
    # the singularity guard reads R11 from the QR the first reverse
    # exchange needs of the same columns: one QR for the two, one per
    # later exchange and one for the blocked result, none repeated
    calls = []
    real = rrqr._packed

    def counted(a, cols):
        calls.append(list(cols))
        return real(a, cols)

    monkeypatch.setattr(rrqr, "_packed", counted)
    a = np.random.default_rng(37).standard_normal((8, 6))
    assert stewart2(a, 2).passes == 4
    assert len(calls) == 1 + 3 + 1
    assert all(x != y for x, y in zip(calls, calls[1:]))


# ------------------------------------------------------------------
# hybrid pivoting and its bounds


def _bound_case(rng, k, n, p):
    # spread spectrum with a gap after p so the split is meaningful
    lead = np.sort(rng.uniform(1.0, 4.0, size=p))[::-1]
    tail = rng.uniform(0.001, 0.05, size=min(k, n) - p)
    return matrix_with_spectrum(rng, k, n, np.concatenate([lead, tail]))


@pytest.mark.parametrize("shape,p", [((6, 9), 2), ((8, 8), 3), ((5, 12), 1)])
def test_hybrid1_bound(shape, p):
    rng = np.random.default_rng(41)
    for _ in range(10):
        a = _bound_case(rng, *shape, p)
        n = shape[1]
        res = hybrid1(a, p)
        svs = np.linalg.svd(a, compute_uv=False)
        scale = np.sqrt(p * (n - p + 1))
        assert res.r11_min_sv >= svs[p - 1] / scale * (1 - 1e-9)
        assert res.r22_max_sv <= res.r11_min_sv * scale * (1 + 1e-9)


@pytest.mark.parametrize("shape,p", [((6, 9), 2), ((8, 8), 3), ((5, 12), 1)])
def test_hybrid2_bound(shape, p):
    rng = np.random.default_rng(42)
    for _ in range(10):
        a = _bound_case(rng, *shape, p)
        n = shape[1]
        res = hybrid2(a, p)
        svs = np.linalg.svd(a, compute_uv=False)
        assert res.r22_max_sv <= svs[p] * np.sqrt((p + 1) * (n - p)) * (1 + 1e-9)


@pytest.mark.parametrize("shape,p", [((6, 9), 2), ((8, 8), 3), ((5, 12), 1)])
def test_hybrid3_satisfies_both_bounds(shape, p):
    rng = np.random.default_rng(43)
    for _ in range(10):
        a = _bound_case(rng, *shape, p)
        n = shape[1]
        res = hybrid3(a, p)
        svs = np.linalg.svd(a, compute_uv=False)
        assert res.r11_min_sv >= svs[p - 1] / np.sqrt(p * (n - p + 1)) * (1 - 1e-9)
        assert res.r22_max_sv <= svs[p] * np.sqrt((p + 1) * (n - p)) * (1 + 1e-9)


def test_hybrid_reported_block_quantities_match_factors():
    rng = np.random.default_rng(44)
    a = rng.standard_normal((6, 9))
    res = hybrid3(a, 2)
    r = res.factors.r
    assert res.assumed_rank == 2
    assert_allclose(res.r11_min_sv, singular_values(r[:2, :2])[-1], rtol=1e-8)
    assert_allclose(res.r22_max_sv, singular_values(r[2:, 2:])[0], rtol=1e-8)


def test_hybrid_exact_rank_leaves_empty_tail():
    rng = np.random.default_rng(45)
    a = matrix_with_spectrum(rng, 6, 10, [5.0, 2.0])
    res = hybrid1(a, 2)
    assert res.r22_max_sv <= 1e-10 * 5.0


def test_hybrid_warm_start_still_meets_bounds():
    rng = np.random.default_rng(46)
    a = _bound_case(rng, 6, 9, 2)
    cold = hybrid3(a, 2)
    warm = hybrid3(a, 3, init=cold.perm)
    svs = np.linalg.svd(a, compute_uv=False)
    assert warm.r11_min_sv >= svs[2] / np.sqrt(3 * 7) * (1 - 1e-9)
    assert warm.r22_max_sv <= svs[3] * np.sqrt(4 * 6) * (1 + 1e-9)


def test_hybrid_p_out_of_range():
    a = np.eye(5)
    for fn in (hybrid1, hybrid2, hybrid3):
        with pytest.raises(ValueError):
            fn(a, 0)
    with pytest.raises(ValueError):
        hybrid1(a, 6)
    with pytest.raises(ValueError):
        hybrid2(a, 5)   # needs sigma_{p+1}
    with pytest.raises(ValueError):
        hybrid3(a, 5)


def test_iteration_error_is_a_runtime_error():
    assert issubclass(RrqrIterationError, RuntimeError)
    err = RrqrIterationError("stuck")
    assert (err.rank, err.boundary, err.passes, err.order) == (None,) * 4


def _rank_five_variant(seed, variant):
    # exact rank 5, 8 x 16, so every boundary from 6 on sits past the rank
    rng = np.random.default_rng(seed)
    a = matrix_with_spectrum(rng, 8, 16, rng.uniform(1.0, 2.0, size=5))
    if variant == "duplicated":
        a[:, 9] = a[:, 3]
    elif variant == "zeroed":
        a[:, 2] = 0.0
    elif variant == "scaled up":
        a *= 1e150
    elif variant == "scaled down":
        a *= 1e-150
    return a


PAST_RANK_CALLS = ([(hybrid1, b) for b in (6, 7, 8)]
                   + [(fn, p) for fn in (hybrid2, hybrid3) for p in (5, 6, 7)])


@pytest.mark.parametrize("variant", ["plain", "duplicated", "zeroed",
                                     "scaled up", "scaled down"])
def test_hybrid_terminates_with_boundary_past_exact_rank(variant):
    # trailing norms past the rank are round-off; the loops must not
    # keep trading them and must leave a numerically empty R22
    for seed in range(12):
        a = _rank_five_variant(seed, variant)
        top = np.linalg.svd(a, compute_uv=False)[0]
        for fn, p in PAST_RANK_CALLS:
            res = fn(a, p)
            permuted = a[:, list(res.perm.order)]
            assert np.linalg.norm(permuted - res.factors.q @ res.factors.r) \
                <= 1e-10 * np.linalg.norm(a), (seed, fn.__name__, p)
            assert res.r22_max_sv <= 1e-10 * top, (seed, fn.__name__, p)


@pytest.mark.parametrize("layout", ["C", "F"])
def test_col_norms_match_numpy_bit_for_bit(layout):
    # in range, the power-of-two scaling and the in-place squaring change
    # no bit of np.linalg.norm's result, in either memory layout
    rng = np.random.default_rng(48)
    a = rng.standard_normal((37, 50)) * np.logspace(-100, 100, 50)
    a[:, 7] = 0.0
    a = np.asarray(a, order=layout)
    assert_array_equal(col_norms(a), np.linalg.norm(a, axis=0))


def _assert_same_as_old_hybrid3(a, p, init=None):
    new, old = hybrid3(a, p, init=init), old_hybrid3(a, p, init=init)
    assert new.perm == old.perm
    assert_array_equal(new.factors.r, old.factors.r)
    assert_array_equal(new.factors.q, old.factors.q)
    # only sweeps whose outcome was already known are skipped
    assert new.passes <= old.passes
    return new


@pytest.mark.parametrize("shape,p", [((6, 9), 2), ((8, 8), 3), ((5, 12), 1)])
def test_hybrid3_matches_old_loop(shape, p):
    # the seeded cases of test_hybrid3_satisfies_both_bounds, cold and
    # warm-started one rank up
    rng = np.random.default_rng(43)
    for _ in range(10):
        a = _bound_case(rng, *shape, p)
        res = _assert_same_as_old_hybrid3(a, p)
        if p + 1 < min(shape):
            _assert_same_as_old_hybrid3(a, p + 1, init=res.perm)


@pytest.mark.parametrize("variant", ["plain", "duplicated", "zeroed",
                                     "scaled up", "scaled down"])
def test_hybrid3_matches_old_loop_past_exact_rank(variant):
    for seed in range(12):
        a = _rank_five_variant(seed, variant)
        for p in (5, 6, 7):
            _assert_same_as_old_hybrid3(a, p)


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_pivots_do_not_depend_on_scale(scale):
    # column norms are taken with power-of-two scaling, so squaring the
    # entries can neither overflow nor underflow
    for seed in range(5):
        a = np.random.default_rng(seed).standard_normal((8, 16))
        for fn, p in ((qr_cp, 8), (hybrid1, 4), (hybrid2, 4), (hybrid3, 4)):
            assert fn(a * scale, p).perm.order == fn(a, p).perm.order, \
                (seed, fn.__name__)


def overflow_matrix():
    """6 x 9, every entry finite, every column norm past the float range."""
    return np.random.default_rng(70).uniform(0.5, 1.0, (6, 9)) * 1.7e308


def _unit_and_scaled(a, k):
    """(a, a * 2^k), both exact: every |entry| of a lies in [0.5, 1) or at
    2^-k times a value that does."""
    return np.ldexp(a, -k), a if k > 0 else np.ldexp(a, k)


def _scale_cases():
    """(unit, scaled, k): the overflow matrix brought down by 2^1000, and
    signed random matrices with |entries| in [0.5, 1) times 2^k."""
    yield (*_unit_and_scaled(overflow_matrix(), 1000), 1000)
    rng = np.random.default_rng(71)
    for shape in [(6, 9), (9, 6), (7, 7)]:
        a = rng.uniform(0.5, 1.0, shape) * rng.choice([-1.0, 1.0], shape)
        for k in (-1020, -700, -1, 1, 700, 1020):
            yield a, np.ldexp(a, k), k


def _assert_result_scaled(got, unit, k):
    # the unit-scale picks, passes and Q bit for bit; R and the block
    # singular values 2^k times the unit-scale ones, saturating to inf
    assert (got.perm, got.passes) == (unit.perm, unit.passes)
    assert got.factors.q.tobytes() == unit.factors.q.tobytes()
    assert_array_equal(got.factors.r, _rescaled(unit.factors.r, k))
    assert_array_equal(got.factors.diag, np.diagonal(got.factors.r))
    assert [got.r11_min_sv, got.r22_max_sv] \
        == _rescaled([unit.r11_min_sv, unit.r22_max_sv], k).tolist()


def test_a_matrix_whose_column_norms_overflow_is_factored():
    # the search takes its scale from the peak entry first, so no column
    # norm overflows and nothing deflates or reads as NaN
    a = overflow_matrix()
    assert np.isfinite(a).all()
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.linalg.norm(a, axis=0)).any()
    out = gs_qr(a)
    assert (out.diag > 0.0).all() and np.isinf(out.r).any()
    for fn in (qr_cp, hybrid1, hybrid2, hybrid3, stewart2):
        assert (fn(a, 2).factors.diag[:2] > 0.0).all(), fn.__name__
    assert scan_model_order(a, 4, n=100).p_hat >= 1


def test_every_strategy_reads_a_power_of_two_scale_off_its_matrix():
    for unit, scaled, k in _scale_cases():
        got, want = gs_qr(scaled), gs_qr(unit)
        assert got.q.tobytes() == want.q.tobytes(), k
        assert_array_equal(got.r, _rescaled(want.r, k))
        for fn in (qr_cp, hybrid1, hybrid2, hybrid3, stewart2):
            for p in (1, 2, min(unit.shape) - 1):
                _assert_result_scaled(fn(scaled, p), fn(unit, p), k)


def test_the_scan_reads_a_power_of_two_scale_off_its_matrix():
    for unit, scaled, k in _scale_cases():
        p_cap = min(unit.shape) - 1
        got, want = (scan_model_order(m, p_cap, n=100)
                     for m in (scaled, unit))
        assert (got.p_hat, got.passes, got.orders) \
            == (want.p_hat, want.passes, want.orders), k
        assert got.ratios().tobytes() == want.ratios().tobytes()
        for attr in ("gamma", "gamma_next"):
            assert [getattr(c, attr) for c in got.candidates] == _rescaled(
                [getattr(c, attr) for c in want.candidates], k).tolist()
        assert got.epsilon == _rescaled(want.epsilon, k)


def test_hybrid_runs_are_deterministic():
    rng = np.random.default_rng(47)
    a = rng.standard_normal((7, 10))
    one, two = hybrid3(a, 3), hybrid3(a, 3)
    assert one.perm.order == two.perm.order
    assert_array_equal(one.factors.q, two.factors.q)
    assert_array_equal(one.factors.r, two.factors.r)


# ------------------------------------------------------------------
# the rank scan's shortcuts give LAPACK's own bits; on a LAPACK/BLAS
# build where one stops being exact these fail at once

GOLDEN_MATRIX = Path(__file__).resolve().parent / "golden" / "inputs" / "matrix.csv"
SCAN_PANELS = ["golden", "paper cell", "K < 128"]
# noise-free, so every trailing norm past rank 3 is round-off
EXACT_PANELS = ["exact rank 180 x 500", "exact rank 50 x 500"]


def _scan_series(case):
    """The panel behind a case's stacked matrix; None for the golden
    matrix, which has none."""
    if case == "paper cell":    # 180 x 900: dgeqrf factors blocks of 32
        return gen_sim1(180, 500, 0).y
    if case == "K < 128":       # 100 x 500: dgeqr2 runs over every column
        return gen_sim2(SimConfig(scenario="sim2", k=100, n=200, seed=3,
                                  noise_kind="hurst")).y
    if case in EXACT_PANELS:
        return exact_rank_three(0, k=int(case.split()[2]), n=500)
    return None


def _scan_panel(case):
    if case == "golden":
        return np.loadtxt(GOLDEN_MATRIX, delimiter=",")
    return np.asarray(build_augmented(_scan_series(case), 1, 5).scaled)


@pytest.mark.parametrize("case", SCAN_PANELS)
def test_scan_panel_gamma_is_the_full_width_gamma(case):
    mat = _scan_panel(case)
    last = rrqr._UNBLOCKED // 2
    tol = rrqr._DEFL_RTOL * col_norms(mat).max()
    search = rrqr._PivotSearch(mat)
    rows = rrqr._scan_orders(search, min(last, min(mat.shape)) - 1)
    for i, (gamma, gamma_next, _, order) in enumerate(rows, start=1):
        _, full = scipy_qr(mat, order, "r", tol)
        _, panel = scipy_qr(mat, rrqr._first_panel(order, last), "r", tol)
        assert tuple(search.unscaled((gamma, gamma_next))) \
            == (full[i - 1, i - 1], full[i, i]), i
        assert_array_equal(np.diagonal(panel)[:last],
                           np.diagonal(full)[:last])


def _seed_case(case):
    if case == "tied":
        return np.diag([1.0, 2.0, 2.0, 1.0])
    if case == "zero matrix":
        return np.zeros((4, 6))
    if case in SCAN_PANELS:
        return _scan_panel(case)
    rng = np.random.default_rng(62)
    if case == "reordered":
        # one vector's entries in 40 orders: equal norms, which a sum in
        # another order than dnrm2's splits into several values
        base = rng.standard_normal(200)
        return np.stack([rng.permutation(base) for _ in range(40)], axis=1)
    if case in ("near ties", "split ties"):
        # one vector's entries in 16 orders, each with one entry moved by
        # an ulp either way: norms at most a rounding apart, and the
        # largest pairwise sum is not the first largest dnrm2 (two values
        # at K = 20, one at K = 50)
        k = 20 if case == "near ties" else 50
        base = rng.standard_normal(k)
        cols = [rng.permutation(base) for _ in range(16)]
        for col in cols:
            j = rng.integers(k)
            col[j] = np.nextafter(col[j], rng.choice([-1.0, 1.0]) * np.inf)
        return np.stack(cols, axis=1)
    a = rng.standard_normal((9, 14))
    a[:, 2] *= 5.0
    if case == "duplicated":
        a[:, 7] = a[:, 2]
    elif case == "zero columns":
        a[:, :2] = 0.0
        a[:, 9] = 0.0
    return a


@pytest.mark.parametrize("case,first", [
    ("tied", 1), ("duplicated", 2), ("reordered", None),
    ("zero columns", 2), ("zero matrix", 0), ("golden", None),
    ("paper cell", None),
])
def test_rank_one_seed_is_dgeqp3s_first_pivot(case, first):
    a = _seed_case(case)
    _, piv = qr(a, mode="r", pivoting=True)
    expected = list(range(a.shape[1]))
    expected[0], expected[piv[0]] = piv[0], 0
    assert rrqr._qr_cp_order(rrqr._PivotSearch(a), 1) == expected
    if first is not None:
        assert piv[0] == first


@pytest.mark.parametrize("case", ["tied", "duplicated", "reordered",
                                  "near ties", "split ties", "zero matrix",
                                  "golden", "paper cell", "K < 128"])
def test_rank_one_seed_is_the_dnrm2_loops(case):
    # the rank-1 norms bracket dnrm2's argmax; dnrm2 decides among the
    # columns within the bracket, so ties and near-ties go as they did
    a = _seed_case(case)
    assert rrqr._qr_cp_order(rrqr._PivotSearch(a), 1)[0] \
        == dnrm2_first_pivot(a)


def _trailing_norms(search, order, i):
    """The norms the column-pivot exchange at boundary i+1 picks by: the
    square roots of the search's column sums of squares at i = 0, else
    the norms of its matrix less the projection on the first i columns
    of the order."""
    if not i:
        return np.sqrt(search.sums)[order]
    q, _ = rrqr._qr(search.a, order[:i], "economic", search.tol)
    return rrqr._residual_norms(search.a, q, q.T @ search.a)[order[i:]]


@pytest.mark.parametrize("case", SCAN_PANELS)
def test_trailing_norms_are_a_gathers_wherever_a_column_sits(case):
    # each column's norm is computed at its own position, so reordering
    # the trailing columns changes no bit; boundary 1's are the square
    # roots of the scaled copy's column sums of squares bit for bit, and
    # against a gather, whose rounding moves with the order, every
    # boundary agrees to the last bit or two
    panel = _scan_panel(case)
    search = rrqr._PivotSearch(panel)
    mat, tol = search.a, search.tol
    rng = np.random.default_rng(63)
    for i in (0, 1, 2, 7):
        order = rng.permutation(mat.shape[1]).tolist()
        norms = _trailing_norms(search, order, i)
        shuffled = order[:i] + rng.permutation(order[i:]).tolist()
        by_col = dict(zip(order[i:], norms))
        assert_array_equal(_trailing_norms(search, shuffled, i),
                           [by_col[c] for c in shuffled[i:]])
        rest = mat[:, order[i:]]
        if i:
            q, _ = rrqr._qr(mat, order[:i], "economic", tol)
            rest = rest - q @ (q.T @ rest)
        gathered = col_norms(rest)
        if i == 0:
            assert_array_equal(norms,
                               np.sqrt(two_pass_scale(panel)[3])[order])
        assert_allclose(norms, gathered, rtol=4 * np.finfo(float).eps,
                        atol=tol)


@pytest.mark.parametrize("case", SCAN_PANELS)
def test_scan_is_the_gathering_scans(case, monkeypatch):
    mat = _scan_panel(case)
    p_cap = min(15, min(mat.shape) - 1)
    rows = rrqr._scan_orders(rrqr._PivotSearch(mat), p_cap)
    monkeypatch.setattr(rrqr, "_strong_exchange", gathered_strong_exchange)
    assert rrqr._scan_orders(rrqr._PivotSearch(mat), p_cap) == rows


def _assert_same_fit(fit, want):
    assert fit.p_hat == want.p_hat
    assert fit.scan == want.scan
    assert fit.diagnostics == want.diagnostics
    for got, exp in ((fit.q_hat, want.q_hat), (fit.factors, want.factors)):
        assert got.flags.f_contiguous == exp.flags.f_contiguous
        assert_array_equal(got, exp)


@pytest.mark.parametrize("case", SCAN_PANELS + EXACT_PANELS)
def test_scan_and_fit_are_the_projecting_ones(case, monkeypatch):
    # the downdated exchange picks what projecting the whole matrix on
    # every pass picked, so every scan field, basis and factor path is
    # that exchange's bit for bit
    mat = _scan_panel(case)
    p_cap = min(15, min(mat.shape) - 1)
    rows = rrqr._scan_orders(rrqr._PivotSearch(mat), p_cap)
    ts = _scan_series(case)
    caps = [] if ts is None else [None, 12]
    fits = [fit_rrqr(ts, 1, 5, p_cap=cap) for cap in caps]
    monkeypatch.setattr(rrqr, "_strong_exchange", projected_strong_exchange)
    assert rrqr._scan_orders(rrqr._PivotSearch(mat), p_cap) == rows
    for cap, fit in zip(caps, fits):
        _assert_same_fit(fit, fit_rrqr(ts, 1, 5, p_cap=cap))


def test_downdated_picks_are_live_both_ways(monkeypatch):
    # on the paper cell the downdated norms settle every exchange that
    # projects something; on a noise-free panel of rank 3 every exchange
    # behind three or more projected columns reads round-off and falls
    # back to the projection
    seen = []
    real = rrqr._downdated_pick

    def counted(search, order, i, q, c):
        pick = real(search, order, i, q, c)
        seen.append((i, pick is None))
        return pick

    monkeypatch.setattr(rrqr, "_downdated_pick", counted)
    fit_rrqr(_scan_series("paper cell"), 1, 5)
    assert seen and not any(fell for _, fell in seen)
    seen.clear()
    fit_rrqr(_scan_series("exact rank 180 x 500"), 1, 5)
    past_rank = [fell for i, fell in seen if i >= 3]
    assert past_rank and all(past_rank)


def _open_downdate_cases():
    """(matrix, order, boundary) where the downdated norms are certain of
    the strongest trailing column, but not of the exchange's pick."""
    rng = np.random.default_rng(67)
    # a column orthogonal to the leading two, 1e-13 long: below the
    # deflation tolerance, so the exchange reads it as 0 and keeps the
    # zero column at the boundary
    basis = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    below_tol = np.zeros((4, 5))
    below_tol[:, :2] = rng.standard_normal((4, 2))
    below_tol[:, 4] = 1e-13 * np.linalg.qr(below_tol[:, :2],
                                           mode="complete")[0][:, 2]
    yield below_tol, [0, 1, 2, 3, 4], 3
    # a challenger longer than the incumbent by 1e-12 + 2e-15 relative:
    # it swaps, by a margin inside the downdate's error bound
    within_swap_tol = basis * [1.0, 1.0, 1.0 + 1e-12 + 2e-15, 0.0]
    yield within_swap_tol, [0, 1, 2, 3], 2


def _fresh_q(a, cols):
    """Q of a fresh economic QR of a[:, cols], with the column signs
    LAPACK leaves, as the column-pivot exchange reads it."""
    return rrqr._lapack(rrqr.dorgqr, *rrqr._packed(a, cols))[0]


def test_downdated_picks_stay_open_at_the_tolerances():
    # the deflation tolerance and the swap tolerance draw lines the
    # downdate cannot see to within its error bound; there it defers to
    # the projection
    for a, order, boundary in _open_downdate_cases():
        search = rrqr._PivotSearch(a)
        i = boundary - 1
        q = _fresh_q(search.a, order[:i])
        assert rrqr._downdated_pick(search, order, i, q,
                                    q.T @ search.a) is None
        got, want = list(order), list(order)
        rrqr._strong_exchange(search, got, boundary)
        projected_strong_exchange(search, want, boundary)
        assert got == want


@pytest.mark.parametrize("case", SCAN_PANELS + EXACT_PANELS)
def test_reused_leading_q_is_a_fresh_qrs(case, monkeypatch):
    # the column-pivot exchange takes Q1 from the inverse-row-norm
    # exchange's dgeqrf output where that factorized exactly its leading
    # columns: each reused Q is the fresh QR's bit for bit, and the scan
    # and basis come out as they do with every Q fresh
    mat = _scan_panel(case)
    p_cap = min(15, min(mat.shape) - 1)
    real = rrqr._PivotSearch.leading_q
    calls = [0, 0]

    def checked(search, cols):
        hit = search.last_qr is not None and search.last_qr[0] == cols
        q = real(search, cols)
        if hit:
            _same_bits(q, _fresh_q(search.a, cols))
        calls[hit] += 1
        return q

    def scan_and_basis():
        search = rrqr._PivotSearch(mat)
        rows = rrqr._scan_orders(search, p_cap)
        basis = rrqr._loading_basis(search, 3, None)
        r22 = rrqr._r22_max_sv(search, basis[0], basis[3])
        return rows, basis[0].tobytes(), basis[1:], r22

    monkeypatch.setattr(rrqr._PivotSearch, "leading_q", checked)
    got = scan_and_basis()
    assert calls[1] > 0, calls
    monkeypatch.setattr(rrqr._PivotSearch, "leading_q",
                        lambda search, cols: _fresh_q(search.a, cols))
    assert got == scan_and_basis()


# ------------------------------------------------------------------
# the pivot search sums each column's squares in one pass, and boundary
# 1 settles its picks on those sums, as every other boundary does on
# their downdates


def _scale_case(case):
    """A C-ordered matrix: M~ of the paper cell, as it is or scaled far
    from unit scale, or a small one with a zero column, a column far
    below the others, or entries near the largest float."""
    if case.startswith("paper cell"):
        m = _scan_panel("paper cell")
        factor = {"paper cell": 1.0, "paper cell * 1e200": 1e200,
                  "paper cell * 1e-200": 1e-200}.get(case)
        return m * factor if factor else np.ldexp(m, -700)
    rng = np.random.default_rng(71)
    a = rng.uniform(-1.0, 1.0, (9, 14))
    if case == "zero column":
        a[:, 3] = 0.0
    elif case == "column at 1e-170":
        a[:, 5] *= 1e-170
    else:
        a *= 1.7e308
    return a


@pytest.mark.parametrize("case", [
    "paper cell", "paper cell * 1e200", "paper cell * 1e-200",
    "paper cell * 2^-700", "zero column", "column at 1e-170",
    "near the largest float"])
def test_one_pass_scale_is_the_two_pass_one(case):
    # the sums of squares at the peak's scale give the column-norm
    # scale the per-column-scaled pass gave; the copy, exponent,
    # tolerance and sums are the two-pass construction's bit for bit
    mat = _scale_case(case)
    assert mat.flags.c_contiguous
    search = rrqr._PivotSearch(mat, 5)
    a, exp, tol, sums = two_pass_scale(mat, 5)
    _same_bits(search.a, a)
    _same_bits(search.sums, sums)
    assert (search.exp, search.tol) == (exp, tol)


def test_a_tie_at_boundary_one_keeps_the_first():
    # two equal columns at boundary 1 have equal sums of squares, so the
    # exchange keeps the first of them where it is
    search = rrqr._PivotSearch(_seed_case("tied"))
    order = rrqr._qr_cp_order(search, 1)
    assert not rrqr._strong_exchange(search, order, 1)
    assert order == [1, 0, 2, 3]


def _boundary_one_outputs(case):
    """What reads boundary-1 picks on a case: the scan, hybrid1-3 at
    rank 1 and, for a panel, fit_rrqr by default, at p_override=1 and
    at p_cap=5."""
    panel = case in SCAN_PANELS + EXACT_PANELS
    mat = _scan_panel(case) if panel else _seed_case(case)
    out = [rrqr._scan_orders(rrqr._PivotSearch(mat),
                             min(15, min(mat.shape) - 1))]
    out += [result_bits(fn(mat, 1)) for fn in (hybrid1, hybrid2, hybrid3)]
    ts = _scan_series(case) if panel else None
    for kw in ({}, {"p_override": 1}, {"p_cap": 5}) if ts is not None else ():
        fit = fit_rrqr(ts, 1, 5, **kw)
        out += [fit.p_hat, fit.scan, dict(fit.diagnostics)]
        out += [(x.flags.f_contiguous, x.tobytes())
                for x in (fit.q_hat, fit.factors)]
    return out


@pytest.mark.parametrize("case", SCAN_PANELS + EXACT_PANELS + [
    "tied", "duplicated", "reordered", "near ties", "split ties",
    "zero columns", "zero matrix"])
def test_boundary_one_picks_are_the_rank_one_norms(case, monkeypatch):
    # with every boundary-1 pick made on the per-column-scaled rank-1
    # norms, summed down contiguous columns as a gather sums them, every
    # output is the same bit for bit as on the square roots of the sums
    got = _boundary_one_outputs(case)
    real = rrqr._strong_exchange
    monkeypatch.setattr(rrqr, "_strong_exchange",
                        lambda search, order, boundary:
                        (real if boundary > 1 else projected_strong_exchange)(
                            search, order, boundary))
    assert _boundary_one_outputs(case) == got


@pytest.mark.parametrize("case", SCAN_PANELS)
def test_boundary_one_runs_no_downdate(case, monkeypatch):
    # boundary 1 projects nothing: the scan, hybrid1-3 at rank 1 and the
    # three fits pick on the sums alone, with no certificate
    real = rrqr._downdated_pick

    def boundary_one_raises(search, order, i, q, c):
        assert i >= 1
        return real(search, order, i, q, c)

    monkeypatch.setattr(rrqr, "_downdated_pick", boundary_one_raises)
    _boundary_one_outputs(case)


# ------------------------------------------------------------------
# a sweep ends at the pass its inverse-row-norm exchange leaves alone;
# the confirming pass it no longer runs would have swapped nothing


def _sweep_outputs(mat, ts):
    """What every caller of the sweeps returns on mat (and ts): the scan,
    two fits, hybrid1-3 at ranks 1-3, and stewart2 on the first 40
    columns where their leading triangle is invertible."""
    p_cap = min(15, min(mat.shape) - 1)
    out = [rrqr._scan_orders(rrqr._PivotSearch(mat), p_cap)]
    for kw in ({}, {"p_override": 2}) if ts is not None else ():
        fit = fit_rrqr(ts, 1, 5, **kw)
        out += [fit.scan, sorted(fit.diagnostics.items()),
                fit.q_hat.tobytes(), fit.factors.tobytes()]
    out += [result_bits(fn(mat, p)) for fn in (hybrid1, hybrid2, hybrid3)
            for p in (1, 2, 3)]
    sub = mat[:, :40]
    start = qr_cp(sub, min(sub.shape))
    if singular_values(start.factors.r)[-1] > 1e-10 * start.factors.r[0, 0]:
        out.append(result_bits(stewart2(sub, 3, init=start.perm)))
    return out


def _sweep_starts(search):
    """The rank-1 seed and a shuffled order of search's matrix."""
    n = search.a.shape[1]
    return [rrqr._qr_cp_order(search, 1),
            np.random.default_rng(68).permutation(n).tolist()]


def _sweep_runs(sweeps, mat):
    """(swaps, passes) and the final order of one sweep at boundaries 1,
    2, 3 and 5, from each of _sweep_starts."""
    search = rrqr._PivotSearch(mat)
    cap = rrqr._PASS_CAP_FACTOR * mat.shape[1]
    out = []
    for start in _sweep_starts(search):
        for boundary in (1, 2, 3, 5):
            order = list(start)
            out.append((sweeps(search, order, boundary, cap), order))
    return out


@pytest.mark.parametrize("case", SCAN_PANELS + EXACT_PANELS)
def test_sweeps_are_the_plain_loops(case, monkeypatch):
    # orders, swaps, passes and every R bit are those of sweeps that run
    # the confirming pass, with the inverse-row-norm exchange reading the
    # whole R as it did
    mat, ts = _scan_panel(case), _scan_series(case)
    got = _sweep_outputs(mat, ts), _sweep_runs(rrqr._hybrid_sweeps, mat)
    monkeypatch.setattr(rrqr, "_hybrid_sweeps", plain_hybrid_sweeps)
    monkeypatch.setattr(rrqr, "_weak_exchange", whole_r_weak_exchange)
    assert got == (_sweep_outputs(mat, ts),
                   _sweep_runs(plain_hybrid_sweeps, mat))


@pytest.mark.parametrize("case", SCAN_PANELS + EXACT_PANELS)
def test_sweeps_meet_the_plain_loops_pass_cap(case):
    # a cap of the plain loop's own pass count P is enough for both loops,
    # the settled pass included, and P - 1 is too few for both
    search = rrqr._PivotSearch(_scan_panel(case))
    for start in _sweep_starts(search):
        for boundary in (1, 2, 3, 5):
            want = plain_hybrid_sweeps(search, list(start), boundary,
                                       rrqr._PASS_CAP_FACTOR * len(start))
            cap = want[1]
            messages = []
            for sweeps in (rrqr._hybrid_sweeps, plain_hybrid_sweeps):
                assert sweeps(search, list(start), boundary, cap) == want
                with pytest.raises(RrqrIterationError) as err:
                    sweeps(search, list(start), boundary, cap - 1)
                messages.append(str(err.value))
            assert messages == [f"no fixed point after {cap - 1} passes at "
                                f"boundary {boundary}"] * 2


def test_paper_cell_scan_skips_its_confirming_passes(monkeypatch):
    # the paper cell's scan ran 37 column-pivot exchanges when every
    # sweep confirmed its last swap with one more pass
    boundaries = []
    real = rrqr._strong_exchange

    def counted(search, order, boundary):
        boundaries.append(boundary)
        return real(search, order, boundary)

    monkeypatch.setattr(rrqr, "_strong_exchange", counted)
    mat = _scan_panel("paper cell")
    rrqr._scan_orders(rrqr._PivotSearch(mat), 15)
    early = len(boundaries)
    boundaries.clear()
    monkeypatch.setattr(rrqr, "_hybrid_sweeps", plain_hybrid_sweeps)
    rrqr._scan_orders(rrqr._PivotSearch(mat), 15)
    assert early <= 25 < len(boundaries)


# ------------------------------------------------------------------
# the QRs call LAPACK as scipy.linalg does; on a build where the two
# stop agreeing these fail at once

# at 180 x 200 dgeqrf runs blocked, so its bits follow the workspace size
QR_SHAPES = {"K < n": (6, 10), "K > n": (10, 6), "one column": (9, 1),
             "180 x 32": (180, 32), "180 x 200": (180, 200)}


def _same_bits(got, want):
    assert got.shape == want.shape
    assert (got.flags.c_contiguous, got.flags.f_contiguous) \
        == (want.flags.c_contiguous, want.flags.f_contiguous)
    assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize("mode", ["r", "economic", "full"])
@pytest.mark.parametrize("shape", QR_SHAPES.values(), ids=QR_SHAPES)
def test_qr_is_scipys(shape, mode, layout):
    rng = np.random.default_rng(65)
    a = np.asarray(rng.standard_normal(shape), order=layout)
    a[:, -1] *= 1e-13                 # one pivot deflates
    cols = rng.permutation(shape[1]).tolist()
    tol = rrqr._DEFL_RTOL * col_norms(a).max()
    want_q, want_r = scipy_qr(a, cols, mode, tol)
    if mode == "r":
        # what the scan reads of dgeqrf's packed output: |r_tt|, 0 at or
        # below tol, is R's diagonal
        packed = rrqr._packed(a, cols)[0]
        gammas = np.abs(np.diagonal(packed))
        gammas[gammas <= tol] = 0.0
        _same_bits(gammas, np.diagonal(want_r).copy())
    else:
        q, r = rrqr._qr(a, cols, mode, tol)
        _same_bits(r, want_r)
        _same_bits(q, want_q)


@pytest.mark.parametrize("layout", ["C", "F"])
def test_narrow_qrs_skip_the_workspace_query(layout, monkeypatch):
    # up to 32 columns dgeqrf and dorgqr run unblocked, so the minimum
    # workspace gives scipy's bits with no size query; 33 columns query
    lworks = []

    def spy(routine):
        def call(*args, lwork, **kw):
            lworks.append(lwork)
            return routine(*args, lwork=lwork, **kw)
        return call

    monkeypatch.setattr(rrqr, "dgeqrf", spy(rrqr.dgeqrf))
    monkeypatch.setattr(rrqr, "dorgqr", spy(rrqr.dorgqr))
    rng = np.random.default_rng(69)
    for k in (20, 50, 180):
        a = np.asarray(rng.standard_normal((k, 40)), order=layout)
        for width in range(1, 34):
            cols = rng.permutation(40)[:width].tolist()
            tol = rrqr._DEFL_RTOL * col_norms(a).max()
            lworks.clear()
            q, r = rrqr._qr(a, cols, "economic", tol)
            want_q, want_r = scipy_qr(a, cols, "economic", tol)
            _same_bits(r, want_r)
            _same_bits(q, want_q)
            assert (-1 in lworks) == (width > 32), (k, width, lworks)
            packed = rrqr._packed(a, cols)[0]
            assert_array_equal(np.triu(packed[:min(k, width)]),
                               np.triu(qr(a[:, cols], mode="raw")[0][0]
                                       [:min(k, width)]))


# ------------------------------------------------------------------
# the inverse-row-norm exchange's one route: dtrtri and dlauum on the
# packed triangle, with the inf rule for deflated pivots and overflow


def _ill_conditioned_triangle(case):
    """An upper triangle of condition number 1e4 to 3e8, on which the
    forward-error bound of its inverse spans 100 to 800 ulps of the row
    norms or more; on the last, the inverse of a unit triangle with b >
    64, dtrtri runs blocked and its norms differ from the solve's by up
    to 56 ulps."""
    rng = np.random.default_rng(63)
    if case == "Kahan":        # diag(s^i) (I - c N), N strictly upper ones
        b, theta = 24, 1.2
        r = np.triu(np.full((b, b), -np.cos(theta)), 1) + np.eye(b)
        r *= (np.sin(theta) ** np.arange(b))[:, None]
    elif case == "graded":     # columns scaled by 0.3^j
        b = 12
        r = np.triu(rng.uniform(-1.0, 1.0, (b, b)))
        r[np.diag_indices(b)] = rng.uniform(0.5, 1.0, b)
        r *= 0.3 ** np.arange(b)
    else:
        b = 100
        y = np.triu(0.7 * np.random.default_rng(2).standard_normal((b, b)), 1)
        r = np.triu(np.linalg.inv(y + np.eye(b)))
    return r


def _bracket(r):
    """Row norms n of dtrtri's inverse X of the upper triangle R of r and
    the half-widths rad = 4(b + 2) eps (w + n) + sqrt(b tiny), w = |X||R||X|
    1, with numpy's own products."""
    b = r.shape[0]
    x = rrqr.dtrtri(np.asfortranarray(np.triu(r)))[0]
    n = np.linalg.norm(x, axis=1)
    w = np.abs(x) @ (np.abs(np.triu(r)) @ (np.abs(x) @ np.ones(b)))
    return n, 4 * (b + 2) * rrqr._EPS * (w + n) + np.sqrt(b * rrqr._TINY)


def _exchange_triangles(case):
    """Every (packed triangle, tolerance) the inverse-row-norm exchange
    reads in a scan of the case's panel to rank 15."""
    seen = []
    real = rrqr._inverse_row_norms

    def spy(r11, tol):
        seen.append((np.array(r11, order="F"), tol))
        return real(r11, tol)

    mat = _scan_panel(case)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rrqr, "_inverse_row_norms", spy)
        rrqr._scan_orders(rrqr._PivotSearch(mat), min(15, min(mat.shape) - 1))
    return seen


@pytest.mark.parametrize("layout", ["C", "F"])
def test_inverse_row_norms_are_solve_triangulars(layout):
    """The exchange's norms are the triangular solve's up to the forward
    error of a triangular inverse.

    With u = eps/2 and X = R^{-1}: column j of the solve R^T Y = I is a
    substitution, so (R^T + D_j) y_j = e_j with |D_j| <= (b + 1) u |R^T|
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    Thm 8.5, for any order of the inner products; the one u more covers
    a trsm that multiplies by each pivot's rounded reciprocal), so the
    solve's inverse X_e obeys |X_e - X| <= (b + 1) u |X_e||R||X|. dtrtri's
    X_t obeys |X_t - X| <= c u |X||R||X_t| (Higham 14.2; c about b for
    the unblocked methods, somewhat more when blocked). To first order
    both are at most (b + 1) u W, W = |X_t||R||X_t|, so

        | ||x_e,i|| - ||x_t,i|| | <= 2(b + 1) u ||W_i||_2 <= (b + 1) eps w_i,

    w = W 1 >= each row's 2-norm. Each norm adds its rounding, (b/2 + 1)
    u relative: the solve's per-column-scaled sum of b squares, and
    dlauum's plain one. So the solve's norm lies within

        rad_i = 4(b + 2) eps (w_i + n_i) + sqrt(b tiny)

    of n_i, the exchange's: over twice the first-order terms, which
    covers the second order, a blocked dtrtri's larger constant and the
    rounding of w, and sqrt(b tiny) covers squares that underflow.
    """
    rng = np.random.default_rng(66)
    cases = []
    for b in (2, 5, 16):
        r11 = np.triu(rng.standard_normal((b, b))) + 3.0 * np.eye(b)
        r11[np.diag_indices(b)] *= rng.choice([-1.0, 1.0], b)  # LAPACK's signs
        cases.append(r11)
    cases += [_ill_conditioned_triangle(c)
              for c in ("Kahan", "graded", "unit inverse")]
    for case in cases:
        # dgeqrf's reflectors below the diagonal are never read
        case[np.tril_indices(len(case), -1)] = 7.0
    # the exchange's own leading blocks, undeflated
    own = [r11 for r11, tol in _exchange_triangles("K < 128")
           if np.abs(r11.diagonal()).min() > tol]
    assert len(own) >= 15
    for case in cases + own:
        case = np.asarray(case, order=layout)
        got = rrqr._inverse_row_norms(case, 0.0)
        _, rad = _bracket(case)
        want = scipy_inverse_row_norms(np.triu(case))
        assert np.isfinite(got).all() and np.isfinite(want).all()
        assert (np.abs(got - want) <= rad).all(), len(case)
    # the bound is needed: on the unit inverse the routes are many ulps
    # apart
    r = _ill_conditioned_triangle("unit inverse")
    n, _ = _bracket(r)
    gap = np.abs(rrqr._inverse_row_norms(r, 0.0)
                 - scipy_inverse_row_norms(r)) / (n * rrqr._EPS)
    assert gap.max() >= 10.0


def test_weak_pick_leaves_deflated_pivots_to_the_inf_rule():
    # a pivot at or below the tolerance reads inf and every other row 0,
    # whatever the other rows' inverse norms, so the exchange moves the
    # first deflated column back
    r11 = np.asfortranarray(np.triu(np.ones((3, 3))))
    r11[1, 1] = -1e-13               # LAPACK's sign
    r11[2, 0] = 7.0                  # a reflector entry, unread
    assert_array_equal(rrqr._inverse_row_norms(r11, 1e-12),
                       [0.0, np.inf, 0.0])
    r11[0, 0] = 1e-12
    assert_array_equal(rrqr._inverse_row_norms(r11, 1e-12),
                       [np.inf, np.inf, 0.0])
    # through the exchange: the search halves the matrix, its largest
    # column norm is sqrt(3)/2, so the pivots 1e-13 and 5e-13 sit below
    # its tolerance; the triangle's QR is the triangle itself
    a = np.triu(np.ones((3, 3)))
    a[1, 1] = 2e-13
    search = rrqr._PivotSearch(a)
    order = [0, 1, 2]
    assert rrqr._weak_exchange(search, order, 3) and order == [0, 2, 1]
    a[0, 0] = 1e-12
    search = rrqr._PivotSearch(a)
    order = [0, 1, 2]
    assert rrqr._weak_exchange(search, order, 3) and order == [2, 1, 0]


def _overflowing_triangle(b, d):
    """d I - J, J the superdiagonal of ones, and the log10 of its inverse's
    row norms: row i is d^-1, ..., d^-m, m = b - i, of squared norm d^-2m
    (1 - d^2m) / (1 - d^2)."""
    r = np.diag(np.full(b, d)) - np.diag(np.ones(b - 1), 1)
    m = np.arange(b, 0, -1)
    return r, -m * np.log10(d) - 0.5 * np.log10(1.0 - d * d)


@pytest.mark.parametrize("b", [20, 40])
def test_overflowing_inverse_rows_read_inf(b):
    # pivots 5e-11, far above the deflation tolerance: at b = 20 the
    # leading rows' squares overflow in dlauum, at b = 40 their entries
    # overflow in dtrtri and inf - inf leaves NaNs; either way those rows
    # read inf, never NaN, and every other row is its exact norm
    d = 5e-11
    r, log_norms = _overflowing_triangle(b, d)
    got = rrqr._inverse_row_norms(np.asfortranarray(r), 0.5 * d)
    assert not np.isnan(got).any()
    big = log_norms > 154.2          # sqrt of the largest float: 1.34e154
    assert big.sum() >= 4 and np.isinf(got[big]).all()
    assert_allclose(np.log10(got[~big]), log_norms[~big], rtol=1e-14)
    # the hybrids terminate on a matrix that leads with the triangle: the
    # inverse-row-norm exchange reads inf rows of an undeflated R11
    rng = np.random.default_rng(71)
    k, n = b + 4, b + 6
    a = np.zeros((k, n))
    a[:b, :b] = r
    a[:, b:] = 0.2 * rng.standard_normal((k, n - b))
    inf_rows = []
    real = rrqr._inverse_row_norms

    def spy(r11, tol):
        norms = real(r11, tol)
        assert not np.isnan(norms).any()
        if np.abs(r11.diagonal()).min() > tol:
            inf_rows.append(int(np.isinf(norms).sum()))
        return norms

    identity = Permutation(tuple(range(n)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rrqr, "_inverse_row_norms", spy)
        for fn in (hybrid1, hybrid3):
            inf_rows.clear()
            res = fn(a, b, init=identity)
            assert res.passes <= rrqr._PASS_CAP_FACTOR * n
            assert max(inf_rows) >= 4, fn.__name__


# ------------------------------------------------------------------
# the loading basis reads LAPACK's first panel; on a build where that cut
# stops being exact the first test fails at once

BASIS_PANELS = ["golden", "paper cell", "K = 50"]


def _basis_panel(case):
    if case == "K = 50":    # 50 x 250: dgeqr2 runs over every column
        return np.asarray(build_augmented(gen_sim1(50, 500, 0).y, 1, 5).scaled)
    return _scan_panel(case)


def _basis_orders(mat):
    """(p, order) at p in 1, 2, 3 and 16 (the widest rank when there are
    fewer): the scan's order at p; and past 16, where the basis QR spans
    every column, at p = 20 hybrid1's order from the scan's at 16."""
    top = min(16, min(mat.shape) - 1)
    scanned = [row[3]
               for row in rrqr._scan_orders(rrqr._PivotSearch(mat), top)]
    out = [(p, scanned[p - 1]) for p in (1, 2, 3, top)]
    if min(mat.shape) > 20:
        out.append((20, hybrid1(mat, 20, init=scanned[-1]).perm.order))
    return out


@pytest.mark.parametrize("case", BASIS_PANELS)
def test_basis_panel_q_and_r11_are_the_full_qrs(case):
    mat = _basis_panel(case)
    tol = rrqr._DEFL_RTOL * col_norms(mat).max()
    for p, order in _basis_orders(mat):
        q, r = rrqr._qr(mat, rrqr._first_panel(order, p), "economic", tol)
        full_q, full_r = rrqr._qr(mat, order, "full", tol)
        assert_array_equal(q[:, :p], full_q[:, :p]), p
        assert_array_equal(r[:p, :p], full_r[:p, :p]), p


@pytest.mark.parametrize("case", BASIS_PANELS)
def test_loading_basis_is_hybrid1s(case):
    # Q[:, :p], sigma_min(R11) and passes bit for bit; sigma_max(R22) from
    # the projected trailing columns within 1e-13 of R22's SVD, relative
    # on the noisy panels; the golden matrix has a planted gap of 2.7e-4
    # below sigma_3, so there both agree only to round-off in sigma_1
    mat = _basis_panel(case)
    top = singular_values(mat)[0]
    for p, order in _basis_orders(mat):
        search = rrqr._PivotSearch(mat)
        q1, r11_min, passes, used = rrqr._loading_basis(search, p, order)
        r22_max = rrqr._r22_max_sv(search, q1, used)
        res = hybrid1(mat, p, init=order)
        assert used == order, p
        assert_array_equal(q1, res.factors.q[:, :p]), p
        assert q1.flags.f_contiguous == res.factors.q[:, :p].flags.f_contiguous
        assert (r11_min, passes) == (res.r11_min_sv, res.passes), p
        scale = top if case == "golden" else res.r22_max_sv
        assert abs(r22_max - res.r22_max_sv) <= 1e-13 * scale, p


def test_loading_basis_r22_is_zero_without_a_trailing_block():
    # R22 is (K - p) x (n - p): empty at p = min(K, n), tall or wide
    rng = np.random.default_rng(64)
    for shape in [(9, 4), (6, 6), (4, 10)]:
        a, p = rng.standard_normal(shape), min(shape)
        search = rrqr._PivotSearch(a)
        q1, _, _, order = rrqr._loading_basis(search, p, None)
        r22_max = rrqr._r22_max_sv(search, q1, order)
        assert r22_max == 0.0 == hybrid1(a, p).r22_max_sv, shape


@pytest.mark.parametrize("case", SCAN_PANELS + EXACT_PANELS)
def test_scanned_orders_are_fixed_points_of_hybrid1(case):
    # what lets a scanned fit take its basis from the scan's order at
    # p_hat as it is: hybrid1 started there keeps it, in one pass
    mat = _scan_panel(case)
    rows = rrqr._scan_orders(rrqr._PivotSearch(mat),
                             min(15, min(mat.shape) - 1))
    for i, (*_, order) in enumerate(rows, start=1):
        res = hybrid1(mat, i, init=order)
        assert (res.perm.order, res.passes) == (order, 1), i


@pytest.mark.parametrize("case", ["paper cell", "K < 128"])
def test_fit_makes_only_the_scans_exchanges(case, monkeypatch):
    # a scanned fit makes exactly the exchanges its scan makes, with no
    # confirming sweep after them, and builds no Permutation
    calls, built = [], []
    for name in ("_strong_exchange", "_weak_exchange"):
        def counted(*args, real=getattr(rrqr, name), name=name):
            calls.append((name, args[2], tuple(args[1])))
            return real(*args)
        monkeypatch.setattr(rrqr, name, counted)
    real_post_init = Permutation.__post_init__

    def counted_post_init(perm):
        built.append(perm.order)
        real_post_init(perm)

    monkeypatch.setattr(Permutation, "__post_init__", counted_post_init)
    fit = fit_rrqr(_scan_series(case), 1, 5)
    fit_calls = list(calls)
    calls.clear()
    rrqr._scan_orders(rrqr._PivotSearch(_scan_panel(case)), fit.scan.p_cap)
    assert fit_calls == calls and calls
    assert not built


PLAIN_NORM_SHAPES = {
    "sim1 180 x 500": lambda seed: (gen_sim1(180, 500, seed).y, 5),
    "sim1 20 x 200": lambda seed: (gen_sim1(20, 200, seed).y, 5),
    "sim1 50 x 500": lambda seed: (gen_sim1(50, 500, seed).y, 5),
    "sim2 hurst 100 x 200": lambda seed: (gen_sim2(SimConfig(
        scenario="sim2", k=100, n=200, seed=seed, noise_kind="hurst")).y, 2),
}


@pytest.mark.parametrize("shape", PLAIN_NORM_SHAPES)
def test_plain_trailing_norms_are_the_scaled_ones(shape):
    # on the unit-scaled copy of M~ the residual's squares neither
    # overflow nor underflow, so summing them plainly gives col_norms'
    # bits, at every boundary the scan reads
    for seed in range(8):
        ts, lag_hi = PLAIN_NORM_SHAPES[shape](seed)
        search = rrqr._PivotSearch(
            np.asarray(build_augmented(ts, 1, lag_hi).scaled))
        unit, tol = search.a, search.tol
        for i, row in enumerate(rrqr._scan_orders(search, 15), start=1):
            order = list(row[3])
            q, _ = rrqr._qr(unit, order[:i], "economic", tol)
            c = q.T @ unit
            resid = unit - q @ c
            assert resid.flags.c_contiguous
            assert_array_equal(rrqr._residual_norms(unit, q, c)[order[i:]],
                               col_norms(resid)[order[i:]]), (seed, i)


# ------------------------------------------------------------------
# permutations


def test_permutation_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        Permutation((0, 2))


# ------------------------------------------------------------------
# singular values


@pytest.mark.parametrize("call,message", [
    (lambda: singular_values(np.ones(3)),
     "expected a 2-D matrix, got shape (3,)"),
    (lambda: singular_values([[1.0, np.nan]]), "matrix contains NaN or Inf"),
    (lambda: gs_qr(np.zeros((0, 2))),
     "expected a nonempty 2-D matrix, got shape (0, 2)"),
    (lambda: hybrid1(np.eye(4), 2, init=[0, 1, 2]),
     "init permutation has length 3, matrix has 4 columns"),
    (lambda: qr_cp(np.eye(4), 5), "max_steps must be in [1, 4], got 5"),
    (lambda: stewart2(np.eye(4), 0),
     "rank must be in [1, 4], got 0"),
    (lambda: hybrid1(np.eye(4), 5), "p must be in [1, 4], got 5"),
    (lambda: hybrid3(np.eye(4), 4), "p must be in [1, 3], got 4"),
    # no rank leaves a column of a one-row or one-column triangle past it
    (lambda: hybrid2(np.ones((1, 3)), 1),
     "hybrid2 needs at least 2 rows and 2 columns, got a 1 x 3 matrix"),
    (lambda: hybrid3(np.ones((3, 1)), 1),
     "hybrid3 needs at least 2 rows and 2 columns, got a 3 x 1 matrix"),
], ids=["svd of 1-D", "svd of NaN", "empty matrix", "init length",
        "qr_cp steps", "stewart2 rank", "hybrid1 p", "hybrid3 p",
        "hybrid2 one row", "hybrid3 one column"])
def test_bad_input_messages(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


_RANKED = {"qr_cp max_steps": ("max_steps", qr_cp),
           "stewart2 rank": ("rank", stewart2),
           "hybrid1 p": ("p", hybrid1), "hybrid2 p": ("p", hybrid2),
           "hybrid3 p": ("p", hybrid3)}


@pytest.mark.parametrize("value", [2.0, 2.5])
@pytest.mark.parametrize("case", list(_RANKED))
def test_non_integer_ranks_are_rejected(case, value):
    name, call = _RANKED[case]
    with pytest.raises(ValueError) as err:
        call(np.eye(4), value)
    assert str(err.value) == f"{name} must be an integer, got {value!r}"


@pytest.mark.parametrize("case", list(_RANKED))
def test_numpy_integer_ranks_are_ranks(case):
    a = np.random.default_rng(62).standard_normal((6, 8))
    if case == "stewart2 rank":
        a = a[:, :6]
    _, call = _RANKED[case]
    for value in (np.int64(2), np.int32(2), np.uint8(2)):
        assert result_bits(call(a, value)) == result_bits(call(a, 2))


@pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
def test_singular_values_of_an_empty_matrix(shape):
    got = singular_values(np.zeros(shape))
    assert got.shape == (0,) and got.dtype == float


def test_singular_values_match_closed_form_2x2():
    rng = np.random.default_rng(61)
    for _ in range(50):
        a = rng.standard_normal((2, 2)) * 10.0 ** rng.integers(-4, 5)
        want = svd2_closed(a)
        got = singular_values(a)
        assert_allclose(got, want, rtol=1e-10, atol=1e-10 * want[0])


def test_singular_values_match_lapack():
    rng = np.random.default_rng(62)
    for shape in SHAPES:
        a = rng.standard_normal(shape)
        want = np.linalg.svd(a, compute_uv=False)
        assert_allclose(singular_values(a), want, atol=1e-8 * want[0])


def test_singular_values_of_diagonal():
    got = singular_values(np.diag([3.0, 1.0]))
    assert_allclose(got, [3.0, 1.0], rtol=1e-12)


def test_interlacing_of_leading_subblocks():
    rng = np.random.default_rng(63)
    for shape in [(3, 6), (5, 8), (8, 8)]:
        for _ in range(30):
            a = rng.standard_normal(shape)
            rows = int(rng.integers(1, shape[0] + 1))
            cols = int(rng.integers(1, shape[1] + 1))
            assert interlacing_holds(a, rows, cols)
