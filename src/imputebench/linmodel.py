"""The imputation model: OLS of y on (x1, x2) with an intercept.

It is fitted from centred moments with ``datagen._slopes``, the 2x2
Cramer's-rule solve of every regression field. Centring keeps data far
from the origin well conditioned, and ``np.add.reduce`` keeps the bits
off the BLAS thread count: nothing here calls BLAS or LAPACK. The
posterior draw uses the lower Cholesky factor of the uncentred X'X in
closed form, L = [[sqrt(n), 0], [sqrt(n) x-bar, chol(S)]], with x-bar
the predictor means and chol(S) the factor of their centred scatter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datagen import SingularDesignError, _slopes  # the error is re-exported
from .stochastics import RngStream


class InsufficientDataError(ValueError):
    """Too few rows to estimate the design."""


@dataclass(frozen=True)
class OlsFit:
    """Frozen result of fit_ols.

    coefficients are (b0, b1, b2), intercept first and read-only, and
    residual_variance is SSE / (n_obs - 3). The posterior draw reads the
    predictor means and scatter_factor = (a, b, c), the lower Cholesky
    factor [[a, 0], [b, c]] of the predictors' centred scatter.
    """

    coefficients: np.ndarray
    residual_variance: float
    n_obs: int
    means: tuple[float, float]
    scatter_factor: tuple[float, float, float]

    @property
    def dof(self) -> int:
        return self.n_obs - 3


def fit_ols(x1: np.ndarray, x2: np.ndarray, y: np.ndarray) -> OlsFit:
    """Fit y ~ x1 + x2 with an intercept.

    Raises InsufficientDataError on 3 rows or fewer, ValueError when a
    centred sum of squares or products overflows, and what datagen._slopes
    raises for "y ~ x1 + x2": ValueError when the centred determinant
    s11 s22 - s12^2 overflows, SingularDesignError when x1 and x2 are collinear.
    """
    n = y.size
    if x1.size != n or x2.size != n:
        raise ValueError(f"columns differ in length: {x1.size}, {x2.size}, {n}")
    if n <= 3:
        raise InsufficientDataError(f"need more than 3 rows, got {n}")
    with np.errstate(over="ignore", invalid="ignore"):
        m1, m2, my = (float(np.add.reduce(col)) / n for col in (x1, x2, y))
        c1, c2, cy = x1 - m1, x2 - m2, y - my
        s11 = float(np.add.reduce(c1 * c1))
        s12 = float(np.add.reduce(c1 * c2))
        s22 = float(np.add.reduce(c2 * c2))
        s1y = float(np.add.reduce(c1 * cy))
        s2y = float(np.add.reduce(c2 * cy))
    if not all(map(math.isfinite, (s11, s12, s22, s1y, s2y))):
        raise ValueError("the centred sums of x1, x2 and y overflow: values too large to fit")
    b1, b2, det = _slopes(s11, s12, s22, s1y, s2y, "y ~ x1 + x2")
    resid = cy - b1 * c1 - b2 * c2
    coefficients = np.array((my - b1 * m1 - b2 * m2, b1, b2))
    coefficients.flags.writeable = False
    a = math.sqrt(s11)
    return OlsFit(
        coefficients=coefficients,
        residual_variance=float(np.add.reduce(resid * resid)) / (n - 3),
        n_obs=n,
        means=(m1, m2),
        scatter_factor=(a, s12 / a, math.sqrt(det / s11)),
    )


def predict(coefficients, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """b0 + b1 x1 + b2 x2 for coefficients (b0, b1, b2)."""
    b0, b1, b2 = coefficients
    return b0 + b1 * x1 + b2 * x2


def bayes_param_draw(fit: OlsFit, stream: RngStream) -> tuple[np.ndarray, float]:
    """One draw of (beta, sigma^2) from the standard conjugate posterior.

    sigma2_draw = sigma2_hat * dof / chi2(dof), then beta_draw = beta_hat +
    sqrt(sigma2_draw) w with L' w = z, so cov(beta_draw | sigma2_draw) =
    sigma2_draw (X'X)^-1; L' is upper triangular, so w is solved from the
    last coordinate up. Draw order is fixed: the chi-square, then z.
    """
    gen = stream.generator
    sigma2_draw = fit.residual_variance * fit.dof / float(gen.chisquare(fit.dof))
    z0, z1, z2 = gen.standard_normal(3).tolist()
    a, b, c = fit.scatter_factor
    w2 = z2 / c
    w1 = (z1 - b * w2) / a
    w0 = z0 / math.sqrt(fit.n_obs) - fit.means[0] * w1 - fit.means[1] * w2
    beta_draw = fit.coefficients + math.sqrt(sigma2_draw) * np.array((w0, w1, w2))
    return beta_draw, sigma2_draw
