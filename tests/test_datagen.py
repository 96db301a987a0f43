import dataclasses

import numpy as np
import pytest

from imputebench.ampute import CompletedDataset
from imputebench.datagen import (
    PREDICTOR_CORR,
    VAR_PROP,
    Dataset,
    PopulationSpec,
    coefficients,
    draw_sample,
    generate_population,
    ground_truth,
)
from imputebench.downstream import estimate_params
from imputebench.stochastics import SeedSpec, make_stream

# frozen closed-form oracle values, hand-computed from the generator moments
HIGH_TRUTH = {
    "mu": 0.0,
    "sigma": 1.1489125293076057,
    "p90": 10.0,
    "rho": 0.8703882797784892,
    "gamma": 0.8,
    "r2_y": 0.8484848484848485,
    "delta": 0.8823529411764706,  # = 0.6 / 0.68
    "r2_x": 0.7794117647058824,
    "mse_full": 0.0,
    "mse_missing": 0.0,
}
LOW_TRUTH = {
    "mu": 0.0,
    "sigma": 1.0392304845413263,
    "p90": 10.0,
    "rho": 0.48112522432468816,
    "gamma": 0.4,
    "r2_y": 0.25925925925925924,
    "delta": 0.32608695652173914,  # = 0.3 / 0.92
    "r2_x": 0.34782608695652173,
    "mse_full": 0.0,
    "mse_missing": 0.0,
}


def _population(r_squared, size, seed=11, stream_id=0):
    spec = PopulationSpec(r_squared=r_squared, size=size)
    return spec, generate_population(spec, make_stream(SeedSpec(seed, stream_id)))


class TestPopulationSpec:
    def test_defaults(self):
        spec = PopulationSpec()
        assert tuple(f.name for f in dataclasses.fields(spec)) == ("r_squared", "size")
        assert spec.r_squared == 0.8
        assert spec.size == 1_000_000
        assert VAR_PROP == (0.8, 0.2)
        assert PREDICTOR_CORR == 0.5

    @pytest.mark.parametrize("kwargs", [
        {"r_squared": 0.0},
        {"r_squared": 1.0},
        {"r_squared": -0.2},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            PopulationSpec(**kwargs)

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            PopulationSpec(size=0)


class TestCoefficients:
    def test_high_signal(self):
        b1, b2, sd = coefficients(PopulationSpec(r_squared=0.8))
        assert b1 == pytest.approx(0.8, abs=1e-12)
        assert b2 == pytest.approx(0.4, abs=1e-12)
        assert sd == pytest.approx(0.4472135954999579, abs=1e-12)

    def test_low_signal(self):
        b1, b2, sd = coefficients(PopulationSpec(r_squared=0.2))
        assert b1 == pytest.approx(0.4, abs=1e-12)
        assert b2 == pytest.approx(0.2, abs=1e-12)
        assert sd == pytest.approx(0.8944271909999159, abs=1e-12)


class TestDataset:
    def test_columns_read_only(self):
        data = Dataset(np.zeros(3), np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            data.y[0] = 1.0

    def test_input_copied(self):
        raw = np.zeros(3)
        data = Dataset(raw, np.zeros(3), np.zeros(3))
        raw[0] = 99.0
        assert data.x1[0] == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            Dataset(np.array([bad]), np.zeros(1), np.zeros(1))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros(3), np.zeros(3), np.zeros(4))

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 1)), np.zeros(3), np.zeros(3))

    def test_len_and_columns(self):
        data = Dataset([1.0, 2.0], [3.0, 4.0], [5.0, 6.0])
        assert len(data) == 2
        np.testing.assert_array_equal(data.x2, [3.0, 4.0])


class TestGeneratePopulation:
    def test_high_signal_sd(self):
        _, pop = _population(0.8, 1_000_000)
        assert 1.14 < np.std(pop.y) < 1.16

    def test_low_signal_corr(self):
        _, pop = _population(0.2, 1_000_000)
        assert 0.47 < np.corrcoef(pop.y, pop.x1)[0, 1] < 0.49

    def test_predictor_corr(self):
        _, pop = _population(0.8, 1_000_000)
        assert 0.495 < np.corrcoef(pop.x1, pop.x2)[0, 1] < 0.505

    def test_regression_recovers_coefficients(self):
        spec, pop = _population(0.8, 1_000_000)
        x = np.column_stack([np.ones(len(pop)), pop.x1, pop.x2])
        coef, _, _, _ = np.linalg.lstsq(x, pop.y, rcond=None)
        b1, b2, _ = coefficients(spec)
        assert abs(coef[1] - b1) < 0.005
        assert abs(coef[2] - b2) < 0.005

    def test_columns_read_only(self):
        _, pop = _population(0.8, 100)
        for col in (pop.x1, pop.x2, pop.y):
            with pytest.raises(ValueError):
                col[0] = 0.0

    def test_size_and_determinism(self):
        spec = PopulationSpec(r_squared=0.8, size=1000)
        a = generate_population(spec, make_stream(SeedSpec(3, 1)))
        b = generate_population(spec, make_stream(SeedSpec(3, 1)))
        assert len(a) == 1000
        np.testing.assert_array_equal(a.y, b.y)


class TestGroundTruth:
    @pytest.mark.parametrize("r_squared,expected", [(0.8, HIGH_TRUTH), (0.2, LOW_TRUTH)])
    def test_matches_frozen_oracle(self, r_squared, expected):
        params = ground_truth(PopulationSpec(r_squared=r_squared))
        for name, value in expected.items():
            assert getattr(params, name) == pytest.approx(value, abs=1e-12), name

    @pytest.mark.parametrize("r_squared", [0.8, 0.2])
    def test_matches_empirical_population(self, r_squared):
        spec, pop = _population(r_squared, 1_000_000)
        truth = ground_truth(spec)
        completed = CompletedDataset(
            data=pop, imputed_mask=np.zeros(len(pop), dtype=bool), method=None
        )
        est = estimate_params(completed, pop)
        for name in truth.field_names():
            tol = 0.3 if name == "p90" else 0.01
            assert abs(getattr(est, name) - getattr(truth, name)) < tol, name


class TestDrawSample:
    def test_full_sample_is_permutation(self):
        _, pop = _population(0.8, 200)
        sample = draw_sample(pop, 200, make_stream(SeedSpec(5, 0)))
        np.testing.assert_array_equal(np.sort(sample.y), np.sort(pop.y))

    def test_rows_come_from_population(self):
        _, pop = _population(0.8, 100_000)
        sample = draw_sample(pop, 1000, make_stream(SeedSpec(5, 1)))
        assert len(sample) == 1000
        assert np.all(np.isin(sample.y, pop.y))
        # without replacement: no sampled value used more often than it occurs
        assert len(np.unique(sample.y)) == 1000

    def test_sample_mean_tracks_population(self):
        _, pop = _population(0.8, 100_000)
        pop_mean = float(np.mean(pop.x1))
        for rep in range(5):
            sample = draw_sample(pop, 1000, make_stream(SeedSpec(6, rep)))
            assert abs(np.mean(sample.x1) - pop_mean) < 4 / np.sqrt(1000)

    def test_oversized_sample_rejected(self):
        _, pop = _population(0.8, 10)
        with pytest.raises(ValueError):
            draw_sample(pop, 11, make_stream(SeedSpec(5, 2)))
