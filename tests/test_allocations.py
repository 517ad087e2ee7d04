"""Allocation ceilings at the paper cell, in units of the stacked matrix
M̃ (sim1, K=180, N=500, lags 1..5: a 180 x 900 matrix, 1.3 MB).

tracemalloc sees numpy's buffers, so a traced peak counts every
full-size array a call holds at once. The panel's normalized copy is
made before tracing, as a fit finds it when another has read the panel.
"""

import tracemalloc

import pytest

from qrfactors.covariance import build_augmented
from qrfactors.factor_rrqr import fit_rrqr
from qrfactors.simgen import gen_sim1

M_BYTES = 180 * 900 * 8


@pytest.fixture(scope="module")
def panel():
    ts = gen_sim1(k=180, n=500, seed=0).y
    ts._normalized
    return ts


def _peak(call) -> int:
    """Bytes call() holds at its peak beyond what was live before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def test_build_augmented_builds_one_stacked_matrix(panel):
    # each lag's product is written into its block of M̃ and divided
    # there: no per-lag array and no stacking copy (3.0 M̃ when there
    # were both)
    assert _peak(lambda: build_augmented(panel, 1, 5)) <= 1.1 * M_BYTES


def test_fit_rrqr_holds_at_most_three_stacked_matrices(panel):
    # the fit frees M̃ once the pivot search holds its unit-scaled copy;
    # the peak is then that copy, the loading basis's trailing columns
    # and their projection (4.25 M̃ while M̃ lived through the fit)
    assert _peak(lambda: fit_rrqr(panel, 1, 5)) <= 3.3 * M_BYTES
