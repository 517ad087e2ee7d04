"""Pivoted-QR engine against naive refactorizing references."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from qrfactors import rrqr
from qrfactors.rrqr import (Permutation, QrFactors, RrqrIterationError, gs_qr,
                            hybrid1, hybrid2, hybrid3, qr_cp, singular_values,
                            stewart2)

from oracles import (abs_r_diag, interlacing_holds, matrix_with_spectrum,
                     naive_pivot_order, old_hybrid3, svd2_closed)

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
    permuted = res.perm.apply(a)
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
    first = gs_qr(a)
    out, perm = stewart2(first, None, 3)
    again, perm2 = stewart2(out, perm, 3)
    assert perm2.order == perm.order
    assert_allclose(again.diag, out.diag, rtol=1e-12)


def test_stewart2_composes_permutations():
    rng = np.random.default_rng(32)
    a = rng.standard_normal((5, 5)) + 2.0 * np.eye(5)
    res = qr_cp(a, 5)
    out, total = stewart2(res.factors, res.perm, 2)
    permuted = a[:, list(total.order)]
    assert np.linalg.norm(permuted - out.q @ out.r) \
        <= 1e-9 * np.linalg.norm(a)


def test_stewart2_rejects_singular_leading_block():
    rng = np.random.default_rng(33)
    a = matrix_with_spectrum(rng, 5, 5, [2.0, 1.0])   # rank 2 of 5
    with pytest.raises(ValueError, match="singular"):
        stewart2(gs_qr(a), None, 2)


def test_stewart2_rejects_leading_block_singular_below_diagonal():
    # sigma_8 / sigma_1 = 1e-15 with no tiny diagonal entry in R; the
    # guard must see the true ratio, not the 1e-8 noise floor of a
    # Gram-matrix route.
    rng = np.random.default_rng(34)
    for _ in range(200):
        a = matrix_with_spectrum(rng, 8, 8, [1.0] * 7 + [1e-15])
        q, r = np.linalg.qr(a)
        factors = QrFactors(q=q, r=r, diag=np.abs(np.diagonal(r)))
        with pytest.raises(ValueError, match="singular"):
            stewart2(factors, None, 4)


def test_stewart2_rank_bounds():
    factors = gs_qr(np.eye(4))
    with pytest.raises(ValueError):
        stewart2(factors, None, 0)
    with pytest.raises(ValueError):
        stewart2(factors, None, 5)


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
            permuted = res.perm.apply(a)
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
    assert_array_equal(rrqr._col_norms(a), np.linalg.norm(a, axis=0))


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


def test_hybrid_runs_are_deterministic():
    rng = np.random.default_rng(47)
    a = rng.standard_normal((7, 10))
    one, two = hybrid3(a, 3), hybrid3(a, 3)
    assert one.perm.order == two.perm.order
    assert_array_equal(one.factors.q, two.factors.q)
    assert_array_equal(one.factors.r, two.factors.r)


# ------------------------------------------------------------------
# permutations


def test_permutation_matrix_agrees_with_apply():
    rng = np.random.default_rng(51)
    a = rng.standard_normal((4, 6))
    perm = Permutation((3, 0, 5, 1, 4, 2))
    assert_allclose(a @ perm.as_matrix(), perm.apply(a), atol=1e-15)


def test_permutation_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        Permutation((0, 2))


# ------------------------------------------------------------------
# singular values


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
