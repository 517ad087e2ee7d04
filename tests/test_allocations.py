"""Allocation ceilings at the paper cell, in units of the stacked matrix
M̃ (sim1, K=180, N=500, lags 1..5: a 180 x 900 matrix, 1.3 MB), and of
rolling refits, in units of their window's panel.

tracemalloc sees numpy's buffers, so a traced peak counts every
full-size array a call holds at once. The panel's normalized copy is
made before tracing, as a fit finds it when another has read the panel.
"""

import tracemalloc

import pytest

from qrfactors.covariance import build_augmented
from qrfactors.factor_rrqr import fit_rrqr
from qrfactors.forecast_eval import rolling_eval
from qrfactors.simgen import gen_sim1
from qrfactors.tsdata import TimeSeries

M_BYTES = 180 * 900 * 8


@pytest.fixture(scope="module")
def panel():
    ts = gen_sim1(k=180, n=500, seed=0).y
    ts._normalized
    return ts


def _traced(call) -> tuple[int, int]:
    """Bytes call() holds at its peak, and bytes still held while its
    result lives, beyond what was live before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = call()
        held, peak = tracemalloc.get_traced_memory()
        del out
        return peak - base, held - base
    finally:
        if not tracing:
            tracemalloc.stop()


def _peak(call) -> int:
    return _traced(call)[0]


def test_build_augmented_builds_one_stacked_matrix(panel):
    # each lag's product is written into its block of M̃ and divided
    # there: no per-lag array and no stacking copy (3.0 M̃ when there
    # were both)
    assert _peak(lambda: build_augmented(panel, 1, 5)) <= 1.1 * M_BYTES


def test_fit_rrqr_holds_at_most_two_stacked_matrices(panel):
    # the fit frees M̃ once the pivot search holds its unit-scaled copy,
    # and the loading basis gathers no trailing columns, since
    # sigma_max(R22) is computed only when read; the peak is then that
    # copy and the scan's projections (4.25 M̃ while M̃ lived through the
    # fit, 3.27 M̃ while the basis built R22)
    assert _peak(lambda: fit_rrqr(panel, 1, 5)) <= 2.2 * M_BYTES


def test_fit_rrqr_keeps_no_stacked_matrix(panel):
    # a returned fit holds q_hat, the factor paths, the scan's record and
    # what its pending sigma_max(R22) rebuilds M̃ from (the normalized
    # panel, the lags, the order and q_hat), not the search's unit-scaled
    # copy (1.17 M̃ when it held that); about 0.11 M̃, most of it the
    # scan's fifteen orders of 900 column indices
    fit_rrqr(panel, 1, 5)  # lazy imports and caches, outside the count
    assert _traced(lambda: fit_rrqr(panel, 1, 5))[1] <= 0.2 * M_BYTES


def test_fit_rrqr_keeps_one_panel_once_its_caller_drops_it(panel):
    # the pending sigma_max(R22) closes over the normalized panel and its
    # exponent, from which it rebuilds M̃, not the TimeSeries: a fit whose
    # caller drops the panel keeps that one copy (2.19 panels when it
    # held the series' values too), q_hat, the factor paths and the scan
    def fit_of_a_dropped_panel():
        return fit_rrqr(TimeSeries(panel.values), 1, 5)

    fit_of_a_dropped_panel()  # lazy imports and caches, outside the count
    assert _traced(fit_of_a_dropped_panel)[1] <= 1.3 * panel.values.nbytes


def test_rolling_eval_drops_each_window_panel_with_its_refit():
    # an rrqr fit holds its normalized panel for an on-demand
    # sigma_max(R22), and rolling_eval keeps only each refit's basis and
    # factor paths, so a window's panel goes before its residuals are
    # formed; in window panels (50 x 500): 4.2, against 6.2 while the
    # refit was kept through the residuals and 4.5 before fits held their
    # panel
    ts = gen_sim1(k=50, n=1000, seed=0).y

    def run():
        return rolling_eval(ts, "rrqr", window=500, refit_stride=10,
                            ar_order=10, eval_len=40)

    run()  # lazy imports and caches, outside the count
    assert _peak(run) <= 5.0 * 50 * 500 * 8
