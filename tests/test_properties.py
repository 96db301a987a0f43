"""Invariants every imputation method keeps, over random small datasets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import expit

from conftest import block_of_one, completed_of, naive_reference_params
from imputebench.ampute import IncompleteBlock, _solve_shifts
from imputebench.datagen import Dataset
from imputebench.downstream import estimate_params
from imputebench.imputers import Draw, Forest, Pmm, Predict, SoftImpute
from imputebench.stochastics import SeedSpec, make_stream

METHODS = (Predict(), Draw(), Pmm(), SoftImpute(), Forest(n_trees=3))
# rows always observed: enough for OLS (p + 1 = 3), five pmm donors and a forest node
MIN_OBSERVED = 6


@st.composite
def incomplete_blocks(draw):
    """Blocks of one to three datasets, each with its own coefficients and mask."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(MIN_OBSERVED, 80))
    prop = draw(st.floats(0.0, 0.9))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x1, x2 = gen.normal(size=(2, k, n))
    beta = gen.normal(size=(3, k, 1))
    truth = beta[0] + beta[1] * x1 + beta[2] * x2 + gen.normal(size=(k, n))
    mask = gen.random((k, n)) < prop
    mask[:, :MIN_OBSERVED] = False
    y = np.where(mask, np.nan, truth)
    return IncompleteBlock(x1=x1, x2=x2, y=y, mask=mask, truth_y=truth)


@pytest.mark.parametrize("method", METHODS, ids=lambda m: m.label)
@settings(max_examples=25, deadline=None)
@given(inc=incomplete_blocks(), seed=st.integers(0, 2**31))
def test_imputation_keeps_observed_values_and_fills_only_the_mask(method, inc, seed):
    streams = [make_stream(SeedSpec(seed, r)) for r in range(inc.mask.shape[0])]
    completed = method.impute_block(inc, streams)
    np.testing.assert_array_equal(completed[~inc.mask], inc.y[~inc.mask])
    assert completed.shape == inc.mask.shape
    assert np.all(np.isfinite(completed))


@settings(deadline=None)
@given(
    scores=arrays(np.float64, st.integers(1, 200), elements=st.floats(-50.0, 50.0)),
    prop=st.floats(0.01, 0.99),
)
def test_solve_shift_calibrates(scores, prop):
    shift = _solve_shifts(scores[None, :], prop)[0]
    assert abs(float(np.mean(expit(scores + shift))) - prop) < 1e-6


@settings(deadline=None)
@given(
    offsets=st.tuples(*[st.floats(-1e4, 1e4)] * 3),
    n=st.integers(10, 200),
    seed=st.integers(0, 2**32 - 1),
)
def test_estimate_params_ignores_column_offsets(offsets, n, seed):
    # well-conditioned columns far from the origin: the centred moments
    # must agree with the lstsq oracle wherever the columns sit
    gen = np.random.default_rng(seed)
    z1, z2, noise = gen.normal(size=(3, n))
    x1, x2 = offsets[0] + z1, offsets[1] + z2
    truth_y = offsets[2] + 0.5 * z1 + noise
    mask = gen.random(n) < 0.4
    inc = block_of_one(x1, x2, np.where(mask, np.nan, truth_y), mask, truth_y)
    completed = completed_of(inc, inc.filled(offsets[2] + gen.normal(size=int(mask.sum()))))
    truth = Dataset(x1, x2, truth_y)
    params = estimate_params(completed, truth)
    for name, value in naive_reference_params(completed, truth).items():
        assert getattr(params, name) == pytest.approx(value, abs=1e-9), name
