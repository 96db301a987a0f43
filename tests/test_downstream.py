import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import imputebench
from conftest import block_of_one, completed_of, naive_quantile
from imputebench.ampute import CompletedDataset, IncompleteBlock, Mechanism, ampute
from imputebench.datagen import (
    Dataset,
    PopulationSpec,
    draw_sample,
    generate_population,
    ground_truth,
)
from imputebench.downstream import (
    DecompositionResult,
    ParamSet,
    _quantile_rows,
    decompose_mse,
    estimate_params,
)
from imputebench.imputers import Draw, Predict, SoftImpute
from imputebench.stochastics import SeedSpec, make_stream

MCAR = Mechanism.MCAR

FIELD_ORDER = (
    "mu", "sigma", "p90", "rho", "gamma", "r2_y", "delta", "r2_x",
    "mse_full", "mse_missing",
)


def _identity_completed(n=1000, seed=20, r_squared=0.8):
    spec = PopulationSpec(r_squared=r_squared, size=n)
    data = generate_population(spec, make_stream(SeedSpec(seed, 0)))
    mask = np.zeros(n, dtype=bool)
    mask[::3] = True
    y = data.y.copy()
    y[mask] = np.nan
    inc = block_of_one(data.x1, data.x2, y, mask, data.y)
    return completed_of(inc, inc.filled(data.y[mask])), data


def _complete(x1, x2, y):
    """A CompletedDataset of fully observed columns."""
    return CompletedDataset(Dataset(x1, x2, y), np.zeros(len(y), dtype=bool), None)


def _wide_values(n, seed):
    gen = np.random.default_rng(seed)
    return gen.normal(size=n) * 10.0 ** gen.integers(-5, 5, size=n)


def quantile(values, q):
    """The quantile of one vector, as the one-row block of _quantile_rows."""
    return float(_quantile_rows(np.asarray(values, dtype=np.float64).reshape(1, -1), q)[0])


class TestQuantile:
    def test_interpolated_value(self):
        assert quantile(np.arange(1.0, 11.0), 0.9) == pytest.approx(9.1, abs=1e-12)

    @pytest.mark.parametrize("values", [[0.1, 0.7], [10.1, 0.7]])
    def test_midpoint_rounds_as_numpy(self, values):
        # g = 0.5 takes numpy's b - (b-a)(1-g), which rounds differently from a + (b-a)g here
        assert quantile(values, 0.5) == float(np.quantile(values, 0.5))

    def test_boundaries(self):
        values = np.array([3.0, 1.0, 2.0])
        assert quantile(values, 0.0) == 1.0
        assert quantile(values, 1.0) == 3.0

    def test_constant(self):
        assert quantile(np.full(7, 4.2), 0.35) == 4.2

    @pytest.mark.parametrize("q", [0.0, 0.9, 1.0])
    def test_single_value(self, q):
        assert quantile(np.array([-2.5]), q) == -2.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            quantile(np.empty(0), 0.5)

    @pytest.mark.parametrize("q", [-0.1, 1.1])
    def test_q_out_of_range(self, q):
        with pytest.raises(ValueError):
            quantile(np.arange(5.0), q)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
    def test_non_finite_rejected(self, bad, q):
        values = np.random.default_rng(14).normal(size=50)
        values[17] = bad
        with pytest.raises(ValueError, match="non-finite"):
            quantile(values, q)

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.one_of(
            arrays(np.float64, st.integers(1, 300), elements=st.floats(-1e6, 1e6)),
            # few distinct values: ties and constant arrays
            arrays(np.float64, st.integers(1, 300), elements=st.sampled_from([-1.5, 0.0, 2.0])),
            # full-precision values over ten decades, where the two lerp
            # forms round differently
            st.builds(_wide_values, st.integers(1, 300), st.integers(0, 2**32 - 1)),
        ),
        q=st.one_of(st.sampled_from([0.0, 0.5, 0.9, 1.0]), st.floats(0.0, 1.0)),
    )
    def test_equals_numpy(self, values, q):
        assert quantile(values, q) == float(np.quantile(values, q))
        assert quantile(values, q) == pytest.approx(naive_quantile(values, q), rel=1e-12, abs=1e-6)


class TestParamSet:
    def test_array_round_trip(self):
        values = np.array([0.1, 1.0, 10.0, 0.5, 0.4, 0.3, 0.35, 0.3, 0.2, 0.4])
        ps = ParamSet.from_array(values)
        np.testing.assert_array_equal(ps.as_array(), values)

    def test_field_order_frozen(self):
        assert ParamSet.field_names() == FIELD_ORDER

    @pytest.mark.parametrize("overrides", [
        {"r2_y": 1.5},
        {"r2_x": -0.2},
        {"p90": 101.0},
        {"p90": -1.0},
        {"mse_full": -0.1},
        {"mse_missing": -0.1},
    ])
    def test_validation(self, overrides):
        base = dict(zip(FIELD_ORDER, [0.0, 1.0, 10.0, 0.5, 0.4, 0.3, 0.35, 0.3, 0.2, 0.4]))
        base.update(overrides)
        with pytest.raises(ValueError):
            ParamSet(**base)


class TestEstimateParams:
    def test_identity_completion(self):
        completed, data = _identity_completed()
        params = estimate_params(completed, data)
        assert params.mse_full == 0.0
        assert params.mse_missing == 0.0
        assert params.p90 == 10.0
        assert params.mu == pytest.approx(np.mean(data.y), abs=1e-12)
        assert params.sigma == pytest.approx(np.std(data.y, ddof=1), abs=1e-12)

    @pytest.mark.parametrize("r_squared", [0.8, 0.2])
    def test_population_matches_analytic(self, r_squared):
        spec = PopulationSpec(r_squared=r_squared, size=100_000)
        pop = generate_population(spec, make_stream(SeedSpec(21, 0)))
        inc = block_of_one(pop.x1, pop.x2, pop.y, np.zeros(len(pop), dtype=bool), pop.y)
        params = estimate_params(completed_of(inc, inc.filled(np.empty(0))), pop)
        gt = ground_truth(spec)
        assert params.p90 == 10.0
        for name in ("mu", "sigma", "rho", "gamma", "r2_y", "delta", "r2_x"):
            assert getattr(params, name) == pytest.approx(getattr(gt, name), abs=0.01), name

    def test_predict_mse_pair_high_signal(self):
        spec = PopulationSpec(r_squared=0.8, size=100_000)
        pop = generate_population(spec, make_stream(SeedSpec(22, 0)))
        fulls, missings = [], []
        for rep in range(200):
            sample = draw_sample(pop, 1000, make_stream(SeedSpec(23, 2 * rep)))
            inc = ampute(sample, MCAR, make_stream(SeedSpec(23, 2 * rep + 1)))
            # predict draws nothing from its stream
            y = Predict().impute_block(inc, [make_stream(SeedSpec(23, 0))])
            completed = completed_of(inc, y)
            params = estimate_params(completed, sample)
            fulls.append(params.mse_full)
            missings.append(params.mse_missing)
        assert np.mean(fulls) == pytest.approx(0.10, abs=0.02)
        assert np.mean(missings) == pytest.approx(0.20, abs=0.03)

    def test_mse_full_is_masked_fraction_of_mse_missing(self):
        completed, data = _identity_completed(seed=24)
        gen = np.random.default_rng(25)
        mask = completed.imputed_mask
        inc = block_of_one(data.x1, data.x2, np.where(mask, np.nan, data.y), mask, data.y)
        noisy = completed_of(inc, inc.filled(data.y[mask] + gen.normal(size=mask.sum())))
        params = estimate_params(noisy, data)
        frac = mask.sum() / len(data)
        assert params.mse_full == pytest.approx(frac * params.mse_missing, abs=1e-12)

    def test_agrees_with_naive_oracle(self, naive_params):
        gen = np.random.default_rng(26)
        for trial in range(50):
            n = int(gen.integers(30, 200))
            x1, x2 = gen.normal(size=n), gen.normal(size=n)
            truth_y = 0.5 * x1 + gen.normal(size=n)
            mask = gen.random(size=n) < 0.4
            y = np.where(mask, np.nan, truth_y)
            inc = block_of_one(x1, x2, y, mask, truth_y)
            completed = completed_of(inc, inc.filled(gen.normal(size=int(mask.sum()))))
            truth = Dataset(x1, x2, truth_y)
            params = estimate_params(completed, truth)
            expected = naive_params(completed, truth)
            for name in FIELD_ORDER:
                assert getattr(params, name) == pytest.approx(expected[name], abs=1e-10), name

    def test_row_misalignment_rejected(self):
        completed, data = _identity_completed(n=300, seed=27)
        short = Dataset(data.x1[:299], data.x2[:299], data.y[:299])
        with pytest.raises(ValueError):
            estimate_params(completed, short)

    def test_exact_fit_has_unit_r2(self):
        x1 = np.arange(6.0)
        x2 = np.array([1.0, -1.0, 2.0, 0.0, 3.0, -2.0])
        y = 2.0 + 3.0 * x1 - x2
        params = estimate_params(_complete(x1, x2, y), Dataset(x1, x2, y))
        assert params.gamma == pytest.approx(3.0, abs=1e-12)
        assert params.r2_y == pytest.approx(1.0, abs=1e-12)
        assert params.r2_x == pytest.approx(1.0, abs=1e-12)

    def test_pure_noise_r2_near_zero(self):
        gen = np.random.default_rng(9)
        x1, x2, y = gen.normal(size=(3, 100_000))
        params = estimate_params(_complete(x1, x2, y), Dataset(x1, x2, y))
        assert params.r2_y < 0.01
        assert params.r2_x < 0.01

    @pytest.mark.parametrize("n", [1, 3])
    def test_too_few_rows_rejected(self, n):
        x1, x2, y = np.random.default_rng(10).normal(size=(3, n))
        with pytest.raises(ValueError, match=f"need more than 3 rows, got {n}"):
            estimate_params(_complete(x1, x2, y), Dataset(x1, x2, y))

    @pytest.mark.parametrize("column", ["x1", "x2", "y"])
    def test_constant_column_named(self, column):
        cols = dict(zip(("x1", "x2", "y"), np.random.default_rng(11).normal(size=(3, 20))))
        cols[column] = np.full(20, 0.1)
        data = Dataset(**cols)
        with pytest.raises(ValueError, match=f"column {column} is constant"):
            estimate_params(_complete(data.x1, data.x2, data.y), data)

    @pytest.mark.parametrize("column", ["x1", "x2", "y"])
    def test_overflowing_column_named(self, column):
        # 1e160-scale deviations square past float64; this used to warn and
        # then fail the ParamSet check with r2 fields of NaN
        cols = dict(zip(("x1", "x2", "y"), np.random.default_rng(15).normal(size=(3, 50))))
        cols[column] = 1e160 * cols[column]
        data = Dataset(**cols)
        with pytest.raises(ValueError, match=f"column {column} is too large: its centred squares overflow"):
            estimate_params(_complete(data.x1, data.x2, data.y), data)

    @pytest.mark.parametrize("regression", ["y ~ x1 + x2", "x1 ~ y + x2"])
    def test_collinear_regression_named(self, regression):
        x1, x2 = np.random.default_rng(12).normal(size=(2, 20))
        if regression == "y ~ x1 + x2":
            x2 = 1.0 - 2.0 * x1
            y = x1 + np.random.default_rng(13).normal(size=20)
        else:
            y = 3.0 + 0.5 * x2
        data = Dataset(x1, x2, y)
        with pytest.raises(ValueError, match=f"regression {re.escape(regression)}: "):
            estimate_params(_complete(x1, x2, y), data)

    def test_constant_completion_rejected(self):
        gen = np.random.default_rng(28)
        x1, x2 = gen.normal(size=50), gen.normal(size=50)
        truth_y = x1 + gen.normal(size=50)
        mask = np.ones(50, dtype=bool)
        inc = block_of_one(x1, x2, np.full(50, np.nan), mask, truth_y)
        completed = completed_of(inc, inc.filled(np.zeros(50)))
        with pytest.raises(ValueError):
            estimate_params(completed, Dataset(x1, x2, truth_y))

    def test_truth_rows_ignore_blas_thread_count(self):
        # OpenBLAS splits a 10^5-long dot over its threads, and the split moves bits
        probe = (
            "from imputebench.harness import ExperimentConfig, _Cell, _table_row\n"
            "cfg = ExperimentConfig(pop_size=100_000)\n"
            "for level in (0, 1):\n"
            "    print(_table_row(cfg, _Cell(-1, level)).params.as_array().tobytes().hex())\n"
        )
        outputs = []
        for threads in ("1", "2"):
            env = dict(
                os.environ, PYTHONPATH=str(Path(imputebench.__file__).parents[1]),
                OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
            )
            done = subprocess.run(
                [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
            )
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert len(outputs[0].split()) == 2
        assert outputs[0] == outputs[1]


@pytest.fixture(scope="module")
def low_setup():
    spec = PopulationSpec(r_squared=0.2, size=100_000)
    pop = generate_population(spec, make_stream(SeedSpec(29, 0)))
    sample = draw_sample(pop, 1000, make_stream(SeedSpec(29, 1)))
    inc = ampute(sample, MCAR, make_stream(SeedSpec(29, 2)))
    return spec, sample, inc


class TestDecomposeMse:
    def test_repeats_validated(self, low_setup):
        spec, sample, inc = low_setup
        with pytest.raises(ValueError):
            decompose_mse(inc, sample, Predict(), 1, make_stream(SeedSpec(30, 0)), spec)

    def test_empty_mask_rejected(self, low_setup):
        spec, sample, _ = low_setup
        inc = block_of_one(
            sample.x1, sample.x2, sample.y, np.zeros(len(sample), dtype=bool), sample.y
        )
        with pytest.raises(ValueError, match="no rows are masked"):
            decompose_mse(inc, sample, Predict(), 10, make_stream(SeedSpec(30, 5)), spec)

    def test_block_of_one_required(self, low_setup):
        spec, sample, inc = low_setup
        two = IncompleteBlock(*(np.repeat(col, 2, axis=0) for col in (
            inc.x1, inc.x2, inc.y, inc.mask, inc.truth_y)))
        with pytest.raises(ValueError, match="the block of one dataset, got 2 rows"):
            decompose_mse(two, sample, Predict(), 10, make_stream(SeedSpec(30, 6)), spec)

    @pytest.mark.parametrize("method", [Predict(), SoftImpute()], ids=lambda m: m.label)
    def test_predict_has_no_variance(self, low_setup, method):
        spec, sample, inc = low_setup
        result = decompose_mse(inc, sample, method, 10, make_stream(SeedSpec(30, 1)), spec)
        assert result.variance < 1e-10
        assert result.noise == pytest.approx(0.8, abs=1e-12)

    def test_draw_variance_matches_residual_noise(self, low_setup):
        spec, sample, inc = low_setup
        result = decompose_mse(inc, sample, Draw(), 100, make_stream(SeedSpec(30, 2)), spec)
        assert result.variance == pytest.approx(0.8, rel=0.15)

    def test_draw_total_roughly_doubles_predict_total(self, low_setup):
        spec, sample, inc = low_setup
        predict = decompose_mse(inc, sample, Predict(), 10, make_stream(SeedSpec(30, 3)), spec)
        draw = decompose_mse(inc, sample, Draw(), 200, make_stream(SeedSpec(30, 4)), spec)
        assert 1.8 <= draw.total / predict.total <= 2.2

    def test_components_sum_to_total(self):
        spec = PopulationSpec(r_squared=0.2, size=100_000)
        pop = generate_population(spec, make_stream(SeedSpec(31, 0)))
        gaps, totals = [], []
        for d in range(5):
            sample = draw_sample(pop, 1000, make_stream(SeedSpec(32, 2 * d)))
            inc = ampute(sample, MCAR, make_stream(SeedSpec(32, 2 * d + 1)))
            result = decompose_mse(inc, sample, Draw(), 100, make_stream(SeedSpec(33, d)), spec)
            gaps.append(result.total - (result.bias_sq + result.variance + result.noise))
            totals.append(result.total)
        assert abs(np.mean(gaps)) < 0.1 * np.mean(totals)

    def test_negative_component_rejected(self):
        with pytest.raises(ValueError):
            DecompositionResult(bias_sq=-0.1, variance=0.0, noise=0.0, total=0.1)
