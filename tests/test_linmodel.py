import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from imputebench.datagen import PopulationSpec, coefficients, generate_population
from imputebench.linmodel import (
    DesignSpec,
    InsufficientDataError,
    SingularDesignError,
    bayes_param_draw,
    design_matrix,
    fit_ols,
    predict,
)
from imputebench.stochastics import SeedSpec, make_stream

XY = DesignSpec(response="y", predictors=("x",))
FORWARD = DesignSpec(response="y", predictors=("x1", "x2"))


def _random_columns(seed, n):
    gen = np.random.default_rng(seed)
    x1 = gen.normal(size=n)
    x2 = gen.normal(size=n)
    y = 1.0 + 0.5 * x1 - 0.25 * x2 + gen.normal(size=n)
    return {"x1": x1, "x2": x2, "y": y}


class TestDesignSpec:
    def test_defaults(self):
        names = tuple(f.name for f in dataclasses.fields(DesignSpec))
        assert names == ("response", "predictors")

    def test_intercept_only_allowed(self):
        spec = DesignSpec(response="y", predictors=())
        m = design_matrix({"y": [3.0, 4.0]}, spec)
        np.testing.assert_array_equal(m, [[1.0], [1.0]])

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            DesignSpec(response="y", predictors=("x1", "x1"))

    def test_response_among_predictors_rejected(self):
        with pytest.raises(ValueError):
            DesignSpec(response="y", predictors=("x1", "y"))


class TestFitOls:
    def test_exact_line(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        fit = fit_ols({"x": x, "y": 2.0 + 3.0 * x}, XY)
        np.testing.assert_allclose(fit.coefficients, [2.0, 3.0], atol=1e-12)
        assert fit.residual_variance == pytest.approx(0.0, abs=1e-20)
        assert fit.n_obs == 4 and fit.p == 1 and fit.dof == 2

    def test_population_recovery(self):
        spec = PopulationSpec(r_squared=0.8, size=1_000_000)
        pop = generate_population(spec, make_stream(SeedSpec(21, 0)))
        fit = fit_ols(pop, FORWARD)
        b1, b2, noise_sd = coefficients(spec)
        assert abs(fit.coefficients[1] - b1) < 0.005
        assert abs(fit.coefficients[2] - b2) < 0.005
        assert abs(fit.residual_variance - noise_sd**2) < 0.005

    def test_duplicate_columns_singular(self):
        cols = _random_columns(0, 50)
        cols["x2"] = cols["x1"]
        with pytest.raises(SingularDesignError):
            fit_ols(cols, FORWARD)

    def test_too_few_rows(self):
        with pytest.raises(InsufficientDataError):
            fit_ols({"x": np.array([1.0, 2.0]), "y": np.array([1.0, 2.0])}, XY)

    def test_missing_response(self):
        with pytest.raises(ValueError):
            fit_ols({"x": np.zeros(5)}, XY)

    def test_residual_orthogonality(self):
        cols = _random_columns(1, 500)
        fit = fit_ols(cols, FORWARD)
        resid = cols["y"] - predict(fit, cols)
        for name in ("x1", "x2"):
            assert abs(resid @ cols[name]) / 500 < 1e-8
        assert abs(resid.sum()) / 500 < 1e-8  # intercept column

    def test_response_scaling(self):
        cols = _random_columns(2, 200)
        fit = fit_ols(cols, FORWARD)
        scaled = dict(cols, y=2.5 * cols["y"])
        fit2 = fit_ols(scaled, FORWARD)
        np.testing.assert_allclose(fit2.coefficients, 2.5 * fit.coefficients, rtol=1e-8)
        assert np.sqrt(fit2.residual_variance) == pytest.approx(
            2.5 * np.sqrt(fit.residual_variance), rel=1e-8
        )

    def test_matches_pseudoinverse_oracle(self):
        for seed in range(10):
            gen = np.random.default_rng(seed)
            cols = {
                "x1": gen.normal(size=50),
                "x2": gen.normal(size=50),
                "y": gen.normal(size=50),
            }
            fit = fit_ols(cols, FORWARD)
            x = np.column_stack([np.ones(50), cols["x1"], cols["x2"]])
            beta = np.linalg.pinv(x) @ cols["y"]
            np.testing.assert_allclose(fit.coefficients, beta, atol=1e-8)


class TestPredict:
    def test_intercept_only_predicts_mean(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        fit = fit_ols({"y": y}, DesignSpec(response="y", predictors=()))
        np.testing.assert_allclose(
            predict(fit, {"y": np.zeros(2)}), [y.mean(), y.mean()], atol=1e-12
        )

    def test_training_row_of_exact_fit(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        fit = fit_ols({"x": x, "y": 2.0 + 3.0 * x}, XY)
        np.testing.assert_allclose(predict(fit, {"x": x[:2]}), [2.0, 5.0], atol=1e-10)

    def test_prediction_mean_matches_response_mean(self):
        cols = _random_columns(3, 300)
        fit = fit_ols(cols, FORWARD)
        assert predict(fit, cols).mean() == pytest.approx(cols["y"].mean(), abs=1e-10)

    def test_missing_column_rejected(self):
        cols = _random_columns(4, 50)
        fit = fit_ols(cols, FORWARD)
        with pytest.raises(ValueError):
            predict(fit, {"x1": np.zeros(3)})


class TestDesignMatrix:
    def test_intercept_first(self):
        m = design_matrix({"x1": [1.0, 2.0], "x2": [3.0, 4.0], "y": [0.0, 0.0]}, FORWARD)
        np.testing.assert_array_equal(m, [[1.0, 1.0, 3.0], [1.0, 2.0, 4.0]])


class TestBayesParamDraw:
    def test_posterior_mean_recovers_coefficients(self):
        cols = _random_columns(5, 400)
        fit = fit_ols(cols, FORWARD)
        stream = make_stream(SeedSpec(30, 0))
        draws = np.array([bayes_param_draw(fit, stream)[0] for _ in range(10_000)])
        se = draws.std(axis=0, ddof=1) / 100.0
        assert np.all(np.abs(draws.mean(axis=0) - fit.coefficients) < 3 * se)

    def test_sigma_draw_moment(self):
        cols = _random_columns(6, 400)
        fit = fit_ols(cols, FORWARD)
        stream = make_stream(SeedSpec(31, 0))
        sig = np.array([bayes_param_draw(fit, stream)[1] for _ in range(10_000)])
        expected = fit.residual_variance * fit.dof / (fit.dof - 2)
        assert sig.mean() == pytest.approx(expected, rel=0.05)

    def test_large_sample_degenerates_to_fit(self):
        spec = PopulationSpec(r_squared=0.8, size=1_000_000)
        pop = generate_population(spec, make_stream(SeedSpec(23, 0)))
        fit = fit_ols(pop, FORWARD)
        beta, _ = bayes_param_draw(fit, make_stream(SeedSpec(23, 1)))
        assert np.all(np.abs(beta - fit.coefficients) < 0.005)

    def test_coefficient_covariance(self):
        # cov(beta_draw) should track sigma2 (X'X)^-1 scaled by the dof ratio
        cols = _random_columns(7, 400)
        fit = fit_ols(cols, FORWARD)
        stream = make_stream(SeedSpec(32, 0))
        draws = np.array([bayes_param_draw(fit, stream)[0] for _ in range(20_000)])
        x = np.column_stack([np.ones(400), cols["x1"], cols["x2"]])
        base = fit.residual_variance * np.linalg.inv(x.T @ x)
        expected = base * fit.dof / (fit.dof - 2)
        np.testing.assert_allclose(np.cov(draws.T), expected, rtol=0.15)

    def test_draw_order_fixed(self):
        # chi-square first, then the normal vector: replaying the stream
        # by hand must reproduce the draw exactly
        cols = _random_columns(8, 100)
        fit = fit_ols(cols, FORWARD)
        beta, sigma2 = bayes_param_draw(fit, make_stream(SeedSpec(33, 0)))
        replay = make_stream(SeedSpec(33, 0))
        chi2 = replay.generator.chisquare(fit.dof)
        sigma2_manual = fit.residual_variance * fit.dof / chi2
        z = replay.generator.standard_normal(3)
        shift = np.linalg.solve(np.array(fit.crossprod_factor).T, z)
        np.testing.assert_allclose(beta, fit.coefficients + np.sqrt(sigma2_manual) * shift, atol=1e-12)
        assert sigma2 == pytest.approx(sigma2_manual, abs=1e-15)


def _reference_coefficients(fit, cols):
    """The scipy triangular solves fit_ols used before it went numpy-only."""
    x = design_matrix(cols, fit.design)
    factor = fit.crossprod_factor
    forward = solve_triangular(factor, x.T @ cols["y"], lower=True)
    return solve_triangular(factor.T, forward, lower=False)


def _reference_draw(fit, stream):
    """bayes_param_draw with the scipy back substitution it used before."""
    dof = fit.dof
    sigma2_draw = fit.residual_variance * dof / float(stream.generator.chisquare(dof))
    z = stream.generator.standard_normal(fit.coefficients.size)
    shift = solve_triangular(fit.crossprod_factor.T, z, lower=False)
    return fit.coefficients + math.sqrt(sigma2_draw) * shift


class TestMatchesScipyReference:
    DESIGNS = [
        FORWARD,
        DesignSpec(response="y", predictors=("x1",)),
        DesignSpec(response="y", predictors=()),
    ]

    @pytest.mark.parametrize("design", DESIGNS, ids=["two", "one", "intercept"])
    def test_bit_identical(self, design):
        for seed in range(300):
            gen = np.random.default_rng(seed)
            n = int(gen.integers(5, 400))
            cols = {
                "x1": gen.normal() + 10.0 ** gen.uniform(-2, 2) * gen.normal(size=n),
                "x2": 10.0 ** gen.uniform(-2, 2) * gen.normal(size=n),
                "y": 10.0 ** gen.uniform(-2, 2) * gen.normal(size=n) + gen.normal(),
            }
            fit = fit_ols(cols, design)
            np.testing.assert_array_equal(fit.coefficients, _reference_coefficients(fit, cols))
            beta, _ = bayes_param_draw(fit, make_stream(SeedSpec(34, seed)))
            np.testing.assert_array_equal(beta, _reference_draw(fit, make_stream(SeedSpec(34, seed))))
