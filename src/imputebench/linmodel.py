"""Ordinary least squares on fully observed rows.

Small, exact linear algebra: designs here have at most a handful of
columns, so the normal equations are solved by Cholesky factorization
and rank deficiency is refused outright instead of regularized. The fit
object keeps the triangular factor around because prediction variance
and Bayesian parameter draws both need it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from scipy.linalg import solve_triangular

from .stochastics import RngStream

# reciprocal condition numbers below this are treated as rank deficiency
_RCOND_FLOOR = 1e-12


class SingularDesignError(ValueError):
    """Design matrix is rank deficient (or numerically indistinguishable)."""


class InsufficientDataError(ValueError):
    """Too few rows to estimate the requested design."""


@dataclass(frozen=True)
class DesignSpec:
    """Names the response and predictor columns of a regression.

    Every design has an intercept, so an intercept-only design (no
    predictors) is legal.
    """

    response: str
    predictors: tuple[str, ...]

    def __post_init__(self):
        preds = tuple(self.predictors)
        object.__setattr__(self, "predictors", preds)
        if len(set(preds)) != len(preds):
            raise ValueError(f"duplicate predictor names: {preds}")
        if self.response in preds:
            raise ValueError(f"response {self.response!r} listed among predictors")


@dataclass(frozen=True)
class OlsFit:
    """Frozen result of an OLS fit.

    Fields
    ------
    design : DesignSpec
    coefficients : ndarray, intercept first
    residual_variance : float
        SSE / (n1 - p - 1).
    n_obs : int
    p : int
        Number of non-intercept predictors.
    crossprod_factor : ndarray
        Lower Cholesky factor L of the normal-equations matrix X'X.
    """

    design: DesignSpec
    coefficients: np.ndarray
    residual_variance: float
    n_obs: int
    p: int
    crossprod_factor: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("coefficients", "crossprod_factor"):
            arr = np.array(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def dof(self) -> int:
        return self.n_obs - self.p - 1


def _columns_of(data) -> Mapping[str, np.ndarray]:
    cols = getattr(data, "columns", None)
    if cols is not None:
        return cols
    if isinstance(data, Mapping):
        return data
    raise TypeError(f"expected a dataset or column mapping, got {type(data).__name__}")


def design_matrix(data, spec: DesignSpec) -> np.ndarray:
    """Stack the design columns, intercept first."""
    cols = _columns_of(data)
    missing = [name for name in spec.predictors if name not in cols]
    if missing:
        raise ValueError(f"missing predictor columns: {missing}")
    arrays = [np.asarray(cols[name], dtype=np.float64) for name in spec.predictors]
    n = len(arrays[0]) if arrays else len(np.asarray(cols[spec.response]))
    return np.column_stack([np.ones(n)] + arrays)


def fit_ols(data, spec: DesignSpec) -> OlsFit:
    """Fit the design by solving the normal equations.

    Raises SingularDesignError on a rank-deficient design and
    InsufficientDataError when fewer than p + 2 rows are supplied.
    """
    cols = _columns_of(data)
    if spec.response not in cols:
        raise ValueError(f"missing response column: {spec.response!r}")
    y = np.asarray(cols[spec.response], dtype=np.float64)
    x = design_matrix(data, spec)
    n, k = x.shape
    p = len(spec.predictors)
    if n <= p + 1:
        raise InsufficientDataError(f"need more than p + 1 = {p + 1} rows, got {n}")
    if y.shape[0] != n:
        raise ValueError("response length does not match predictor length")

    xtx = x.T @ x
    if np.linalg.cond(xtx) > 1.0 / _RCOND_FLOOR:
        raise SingularDesignError("design matrix is rank deficient")
    try:
        factor = np.linalg.cholesky(xtx)
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError("design matrix is rank deficient") from exc

    xty = x.T @ y
    beta = solve_triangular(
        factor.T, solve_triangular(factor, xty, lower=True), lower=False
    )
    resid = y - x @ beta
    sigma2 = max(float(resid @ resid) / (n - p - 1), 0.0)
    return OlsFit(
        design=spec,
        coefficients=beta,
        residual_variance=sigma2,
        n_obs=n,
        p=p,
        crossprod_factor=factor,
    )


def predict(fit: OlsFit, rows) -> np.ndarray:
    """Fitted values of the design at the supplied rows."""
    x = design_matrix(rows, fit.design)
    return x @ fit.coefficients


def r_squared(fit: OlsFit, data) -> float:
    """1 - SSE/SST of the fit evaluated on the supplied rows."""
    cols = _columns_of(data)
    y = np.asarray(cols[fit.design.response], dtype=np.float64)
    resid = y - predict(fit, data)
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst == 0.0:
        raise ValueError("response variance is zero; r_squared undefined")
    return 1.0 - float(resid @ resid) / sst


def bayes_param_draw(fit: OlsFit, stream: RngStream) -> tuple[np.ndarray, float]:
    """One draw of (beta, sigma^2) from the standard conjugate posterior.

    sigma2_draw = sigma2_hat * dof / chi2(dof), then
    beta_draw = beta_hat + sqrt(sigma2_draw) * L^-T z with L the Cholesky
    factor of X'X, so cov(beta_draw | sigma2_draw) = sigma2_draw (X'X)^-1.
    Draw order is fixed: the chi-square first, then the normal vector.
    """
    dof = fit.dof
    chi2 = float(stream.generator.chisquare(dof))
    sigma2_draw = fit.residual_variance * dof / chi2
    z = stream.generator.standard_normal(fit.coefficients.size)
    shift = solve_triangular(fit.crossprod_factor.T, z, lower=False)
    beta_draw = fit.coefficients + math.sqrt(sigma2_draw) * shift
    return beta_draw, float(sigma2_draw)
