import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imputebench.datagen import PopulationSpec, coefficients, generate_population
from imputebench.linmodel import (
    InsufficientDataError,
    SingularDesignError,
    bayes_param_draw,
    fit_ols,
    predict,
)
from imputebench.stochastics import SeedSpec, make_stream


def _random_columns(seed, n):
    gen = np.random.default_rng(seed)
    x1 = gen.normal(size=n)
    x2 = gen.normal(size=n)
    y = 1.0 + 0.5 * x1 - 0.25 * x2 + gen.normal(size=n)
    return x1, x2, y


def _determinant_overflow_columns(seed, n, scatter):
    """Centred x1, x2 with sum of squares ``scatter`` each and correlation near 0.5."""
    x1, z, y = _random_columns(seed, n)
    x2 = 0.5 * x1 + math.sqrt(0.75) * z
    x1, x2 = x1 - x1.mean(), x2 - x2.mean()
    x1 *= math.sqrt(scatter / (x1 @ x1))
    x2 *= math.sqrt(scatter / (x2 @ x2))
    assert float(x1 @ x1) * float(x2 @ x2) == math.inf and math.isfinite(float(x1 @ x2) ** 2)
    return x1, x2, y


def _design(x1, x2):
    return np.column_stack([np.ones(x1.size), x1, x2])


def _uncentred_factor(x1, x2):
    """The lower Cholesky factor of the uncentred X'X, by LAPACK."""
    x = _design(x1, x2)
    return np.linalg.cholesky(x.T @ x)


class TestFitOls:
    def test_exact_line(self):
        x1 = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        x2 = np.array([1.0, -1.0, 2.0, 0.0, 5.0])
        fit = fit_ols(x1, x2, 2.0 + 3.0 * x1 - x2)
        np.testing.assert_allclose(fit.coefficients, [2.0, 3.0, -1.0], atol=1e-12)
        assert fit.residual_variance == pytest.approx(0.0, abs=1e-20)
        assert fit.n_obs == 5 and fit.dof == 2

    def test_population_recovery(self):
        spec = PopulationSpec(r_squared=0.8, size=1_000_000)
        pop = generate_population(spec, make_stream(SeedSpec(21, 0)))
        fit = fit_ols(pop.x1, pop.x2, pop.y)
        b1, b2, noise_sd = coefficients(spec)
        assert abs(fit.coefficients[1] - b1) < 0.005
        assert abs(fit.coefficients[2] - b2) < 0.005
        assert abs(fit.residual_variance - noise_sd**2) < 0.005

    def test_duplicate_columns_singular(self):
        x1, _, y = _random_columns(0, 50)
        with pytest.raises(SingularDesignError):
            fit_ols(x1, x1, y)

    def test_constant_column_singular(self):
        x1, _, y = _random_columns(0, 50)
        with pytest.raises(SingularDesignError):
            fit_ols(x1, np.full(50, 3.0), y)

    def test_nearly_collinear_columns_singular(self):
        # 1 - r^2 of x1 and x2 is about 1e-14, below the 1e-12 floor
        x1, _, y = _random_columns(9, 200)
        x2 = x1 + 1e-7 * np.random.default_rng(10).normal(size=200)
        with pytest.raises(SingularDesignError):
            fit_ols(x1, x2, y)

    @pytest.mark.parametrize("scale", [1e80, 1e160])
    def test_overflowing_sums_are_not_collinearity(self, scale):
        # at 1e160 the centred squares overflow float64 (the suite's filter
        # turns numpy's overflow warning into an error); at 1e80 they are
        # finite but s11 s22 overflows. Either NaN determinant used to read
        # as collinear predictors
        x1, x2, y = _random_columns(14, 50)
        with pytest.raises(ValueError, match="overflow") as info:
            fit_ols(scale * x1, scale * x2, y)
        assert not isinstance(info.value, SingularDesignError)

    def test_infinite_determinant_is_overflow(self):
        # s11 = s22 = 1.5e154 at correlation about 0.5: s11 s22 overflows to
        # inf while s12^2 stays finite, so det = inf is above the floor
        x1, x2, y = _determinant_overflow_columns(17, 500, 1.5e154)
        with pytest.raises(ValueError, match="overflow") as info:
            fit_ols(x1, x2, y)
        assert not isinstance(info.value, SingularDesignError)

    def test_too_few_rows(self):
        x1, x2, y = _random_columns(0, 3)
        with pytest.raises(InsufficientDataError):
            fit_ols(x1, x2, y)

    def test_missing_response(self):
        x1, x2, _ = _random_columns(0, 5)
        with pytest.raises(ValueError, match="differ in length"):
            fit_ols(x1, x2, np.empty(0))

    def test_residual_orthogonality(self):
        x1, x2, y = _random_columns(1, 500)
        fit = fit_ols(x1, x2, y)
        resid = y - predict(fit.coefficients, x1, x2)
        for column in (x1, x2):
            assert abs(resid @ column) / 500 < 1e-8
        assert abs(resid.sum()) / 500 < 1e-8  # intercept column

    def test_response_scaling(self):
        x1, x2, y = _random_columns(2, 200)
        fit = fit_ols(x1, x2, y)
        fit2 = fit_ols(x1, x2, 2.5 * y)
        np.testing.assert_allclose(fit2.coefficients, 2.5 * fit.coefficients, rtol=1e-8)
        assert np.sqrt(fit2.residual_variance) == pytest.approx(
            2.5 * np.sqrt(fit.residual_variance), rel=1e-8
        )

    def test_matches_pseudoinverse_oracle(self):
        for seed in range(10):
            gen = np.random.default_rng(seed)
            x1, x2, y = gen.normal(size=(3, 50))
            fit = fit_ols(x1, x2, y)
            beta = np.linalg.pinv(_design(x1, x2)) @ y
            np.testing.assert_allclose(fit.coefficients, beta, atol=1e-8)

    def test_read_only_coefficients(self):
        fit = fit_ols(*_random_columns(3, 30))
        with pytest.raises(ValueError):
            fit.coefficients[0] = 0.0

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(5, 400),
        offsets=st.tuples(*[st.floats(-1e4, 1e4)] * 3),
        log_scales=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
    )
    def test_matches_lstsq(self, seed, n, offsets, log_scales):
        # the same rows through LAPACK's least squares, at offsets up to
        # 1e4 and scales 1e-2 to 1e2 per column; the intercept cancels at
        # large offsets, so it is checked through the fitted values
        gen = np.random.default_rng(seed)
        s1, s2, sy = (10.0**k for k in log_scales)
        x1 = offsets[0] + s1 * gen.normal(size=n)
        x2 = offsets[1] + s2 * gen.normal(size=n)
        y = offsets[2] + sy * gen.normal(size=n)
        fit = fit_ols(x1, x2, y)
        x = _design(x1, x2)
        beta = np.linalg.lstsq(x, y, rcond=None)[0]
        fitted = x @ beta
        np.testing.assert_allclose(predict(fit.coefficients, x1, x2), fitted, rtol=1e-9, atol=1e-9 * sy)
        # a slope times its column's spread, against y's magnitude
        slope_effect = np.abs(fit.coefficients[1:] - beta[1:]) * (s1, s2)
        assert np.all(slope_effect <= 1e-9 * np.abs(y).max())
        resid = y - fitted
        assert fit.residual_variance == pytest.approx(resid @ resid / (n - 3), rel=1e-8)


class TestPredict:
    def test_training_row_of_exact_fit(self):
        x1 = np.array([0.0, 1.0, 2.0, 3.0])
        x2 = np.array([0.0, 1.0, 0.0, 2.0])
        fit = fit_ols(x1, x2, 2.0 + 3.0 * x1 + 0.5 * x2)
        np.testing.assert_allclose(predict(fit.coefficients, x1[:2], x2[:2]), [2.0, 5.5], atol=1e-10)

    def test_prediction_mean_matches_response_mean(self):
        x1, x2, y = _random_columns(3, 300)
        fit = fit_ols(x1, x2, y)
        assert predict(fit.coefficients, x1, x2).mean() == pytest.approx(y.mean(), abs=1e-10)

    def test_missing_column_rejected(self):
        fit = fit_ols(*_random_columns(4, 50))
        with pytest.raises(TypeError):
            predict(fit.coefficients, np.zeros(3))


class TestBayesParamDraw:
    def test_posterior_mean_recovers_coefficients(self):
        x1, x2, y = _random_columns(5, 400)
        fit = fit_ols(x1, x2, y)
        stream = make_stream(SeedSpec(30, 0))
        draws = np.array([bayes_param_draw(fit, stream)[0] for _ in range(10_000)])
        se = draws.std(axis=0, ddof=1) / 100.0
        assert np.all(np.abs(draws.mean(axis=0) - fit.coefficients) < 3 * se)

    def test_sigma_draw_moment(self):
        fit = fit_ols(*_random_columns(6, 400))
        stream = make_stream(SeedSpec(31, 0))
        sig = np.array([bayes_param_draw(fit, stream)[1] for _ in range(10_000)])
        expected = fit.residual_variance * fit.dof / (fit.dof - 2)
        assert sig.mean() == pytest.approx(expected, rel=0.05)

    def test_large_sample_degenerates_to_fit(self):
        spec = PopulationSpec(r_squared=0.8, size=1_000_000)
        pop = generate_population(spec, make_stream(SeedSpec(23, 0)))
        fit = fit_ols(pop.x1, pop.x2, pop.y)
        beta, _ = bayes_param_draw(fit, make_stream(SeedSpec(23, 1)))
        assert np.all(np.abs(beta - fit.coefficients) < 0.005)

    def test_coefficient_covariance(self):
        # cov(beta_draw) should track sigma2 (X'X)^-1 scaled by the dof ratio
        x1, x2, y = _random_columns(7, 400)
        fit = fit_ols(x1, x2, y)
        stream = make_stream(SeedSpec(32, 0))
        draws = np.array([bayes_param_draw(fit, stream)[0] for _ in range(20_000)])
        x = _design(x1, x2)
        base = fit.residual_variance * np.linalg.inv(x.T @ x)
        expected = base * fit.dof / (fit.dof - 2)
        np.testing.assert_allclose(np.cov(draws.T), expected, rtol=0.15)

    def test_draw_order_fixed(self):
        # chi-square first, then the normal vector: replaying the stream
        # by hand must reproduce the draw exactly
        x1, x2, y = _random_columns(8, 100)
        fit = fit_ols(x1, x2, y)
        beta, sigma2 = bayes_param_draw(fit, make_stream(SeedSpec(33, 0)))
        replay = make_stream(SeedSpec(33, 0))
        chi2 = replay.generator.chisquare(fit.dof)
        sigma2_manual = fit.residual_variance * fit.dof / chi2
        z = replay.generator.standard_normal(3)
        shift = np.linalg.solve(_uncentred_factor(x1, x2).T, z)
        np.testing.assert_allclose(beta, fit.coefficients + np.sqrt(sigma2_manual) * shift, atol=1e-12)
        assert sigma2 == pytest.approx(sigma2_manual, abs=1e-15)

    def test_closed_form_factor_matches_cholesky(self):
        # the draw is beta_hat + s L^-T z with L LAPACK's Cholesky factor
        # of the uncentred X'X, built here from the same rows
        for seed in range(100):
            gen = np.random.default_rng(seed)
            n = int(gen.integers(5, 1000))
            x1 = gen.normal(size=n)
            x2 = 0.5 * x1 + gen.normal(size=n)
            fit = fit_ols(x1, x2, 1.0 + x1 - x2 + gen.normal(size=n))
            beta, sigma2 = bayes_param_draw(fit, make_stream(SeedSpec(34, seed)))
            replay = make_stream(SeedSpec(34, seed)).generator
            replay.chisquare(fit.dof)
            shift = np.linalg.solve(_uncentred_factor(x1, x2).T, replay.standard_normal(3))
            want = fit.coefficients + np.sqrt(sigma2) * shift
            np.testing.assert_allclose(beta, want, rtol=1e-12, atol=0, err_msg=str(seed))
