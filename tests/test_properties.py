"""Invariants every imputation method keeps, over random small datasets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import expit

from conftest import naive_reference_params
from imputebench.ampute import CompletedDataset, IncompleteDataset, solve_shift
from imputebench.datagen import Dataset
from imputebench.downstream import estimate_params
from imputebench.forest import ForestParams
from imputebench.imputers import Draw, Forest, Pmm, Predict, SoftImpute
from imputebench.stochastics import SeedSpec, make_stream

METHODS = (Predict(), Draw(), Pmm(), SoftImpute(), Forest(params=ForestParams(n_trees=3)))
# rows always observed: enough for OLS (p + 1 = 3), five pmm donors and a forest node
MIN_OBSERVED = 6


@st.composite
def incomplete_datasets(draw):
    n = draw(st.integers(MIN_OBSERVED, 80))
    prop = draw(st.floats(0.0, 0.9))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x1, x2 = gen.normal(size=n), gen.normal(size=n)
    beta = gen.normal(size=3)
    truth = beta[0] + beta[1] * x1 + beta[2] * x2 + gen.normal(size=n)
    mask = gen.random(n) < prop
    mask[:MIN_OBSERVED] = False
    y = np.where(mask, np.nan, truth)
    return IncompleteDataset(x1=x1, x2=x2, y=y, mask=mask, truth_y=truth)


@pytest.mark.parametrize("method", METHODS, ids=lambda m: m.label)
@settings(max_examples=25, deadline=None)
@given(inc=incomplete_datasets(), seed=st.integers(0, 2**31))
def test_imputation_keeps_observed_values_and_fills_only_the_mask(method, inc, seed):
    completed = method.impute(inc, make_stream(SeedSpec(seed, 0)))
    np.testing.assert_array_equal(completed.data.y[~inc.mask], inc.y[~inc.mask])
    np.testing.assert_array_equal(completed.imputed_mask, inc.mask)
    assert np.all(np.isfinite(completed.data.y))


@settings(deadline=None)
@given(
    scores=arrays(np.float64, st.integers(1, 200), elements=st.floats(-50.0, 50.0)),
    prop=st.floats(0.01, 0.99),
)
def test_solve_shift_calibrates(scores, prop):
    shift = solve_shift(scores, prop)
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
    inc = IncompleteDataset(
        x1=x1, x2=x2, y=np.where(mask, np.nan, truth_y), mask=mask, truth_y=truth_y
    )
    completed = CompletedDataset.from_imputation(
        inc, offsets[2] + gen.normal(size=int(mask.sum())), None
    )
    truth = Dataset(x1, x2, truth_y)
    params = estimate_params(completed, truth)
    for name, value in naive_reference_params(completed, truth).items():
        assert getattr(params, name) == pytest.approx(value, abs=1e-9), name
