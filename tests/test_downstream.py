import numpy as np
import pytest

from imputebench.ampute import (
    CompletedDataset,
    IncompleteDataset,
    Mechanism,
    MissingnessSpec,
    ampute,
)
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
    decompose_mse,
    estimate_params,
    quantile,
)
from imputebench.imputers import Draw, Predict, impute_predict
from imputebench.stochastics import SeedSpec, make_stream

MCAR = MissingnessSpec(Mechanism.MCAR)

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
    inc = IncompleteDataset(x1=data.x1, x2=data.x2, y=y, mask=mask, truth_y=data.y)
    return CompletedDataset.from_imputation(inc, data.y[mask], None), data


class TestQuantile:
    def test_interpolated_value(self):
        assert quantile(np.arange(1.0, 11.0), 0.9) == pytest.approx(9.1, abs=1e-12)

    def test_boundaries(self):
        values = np.array([3.0, 1.0, 2.0])
        assert quantile(values, 0.0) == 1.0
        assert quantile(values, 1.0) == 3.0

    def test_constant(self):
        assert quantile(np.full(7, 4.2), 0.35) == 4.2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            quantile(np.empty(0), 0.5)

    @pytest.mark.parametrize("q", [-0.1, 1.1])
    def test_q_out_of_range(self, q):
        with pytest.raises(ValueError):
            quantile(np.arange(5.0), q)


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
        inc = IncompleteDataset(
            x1=pop.x1, x2=pop.x2, y=pop.y,
            mask=np.zeros(len(pop), dtype=bool), truth_y=pop.y,
        )
        params = estimate_params(CompletedDataset.from_imputation(inc, np.empty(0), None), pop)
        gt = ground_truth(spec).params
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
            params = estimate_params(impute_predict(inc), sample)
            fulls.append(params.mse_full)
            missings.append(params.mse_missing)
        assert np.mean(fulls) == pytest.approx(0.10, abs=0.02)
        assert np.mean(missings) == pytest.approx(0.20, abs=0.03)

    def test_mse_full_is_masked_fraction_of_mse_missing(self):
        completed, data = _identity_completed(seed=24)
        gen = np.random.default_rng(25)
        mask = completed.imputed_mask
        noisy = CompletedDataset.from_imputation(
            IncompleteDataset(
                x1=data.x1, x2=data.x2,
                y=np.where(mask, np.nan, data.y), mask=mask, truth_y=data.y,
            ),
            data.y[mask] + gen.normal(size=mask.sum()),
            None,
        )
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
            inc = IncompleteDataset(x1=x1, x2=x2, y=y, mask=mask, truth_y=truth_y)
            completed = CompletedDataset.from_imputation(
                inc, gen.normal(size=int(mask.sum())), None
            )
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

    def test_constant_completion_rejected(self):
        gen = np.random.default_rng(28)
        x1, x2 = gen.normal(size=50), gen.normal(size=50)
        truth_y = x1 + gen.normal(size=50)
        mask = np.ones(50, dtype=bool)
        inc = IncompleteDataset(
            x1=x1, x2=x2, y=np.full(50, np.nan), mask=mask, truth_y=truth_y
        )
        completed = CompletedDataset.from_imputation(inc, np.zeros(50), None)
        with pytest.raises(ValueError):
            estimate_params(completed, Dataset(x1, x2, truth_y))


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
        inc = IncompleteDataset(
            x1=sample.x1, x2=sample.x2, y=sample.y,
            mask=np.zeros(len(sample), dtype=bool), truth_y=sample.y,
        )
        with pytest.raises(ValueError, match="no rows are masked"):
            decompose_mse(inc, sample, Predict(), 10, make_stream(SeedSpec(30, 5)), spec)

    def test_predict_has_no_variance(self, low_setup):
        spec, sample, inc = low_setup
        result = decompose_mse(inc, sample, Predict(), 10, make_stream(SeedSpec(30, 1)), spec)
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
