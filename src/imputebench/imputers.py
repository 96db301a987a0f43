"""The five imputation methods; each method object imputes itself.

``predict`` and ``draw`` are the two regression imputers (conditional
mean, and conditional mean plus residual noise). ``pmm`` is type-1
predictive mean matching. All three fit ``linmodel.fit_ols``, y on
(x1, x2), to the observed rows' columns. ``softimpute`` is rank-2
matrix completion of (x1, x2, y); with holes only in y and no penalty,
its fixed point is the uncentred total-least-squares plane of the
observed rows, which it computes directly (the iterative ALS that
reaches the same point is a test reference). The forest imputer lives
in its own module; :class:`Forest` is its method object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .ampute import CompletedDataset, IncompleteDataset
from .forest import ForestParams, impute_forest
from .linmodel import bayes_param_draw, fit_ols, predict
from .stochastics import RngStream

# pmm copies y from one of this many nearest observed rows
PMM_DONORS = 5


class ImputationMethod:
    """Base class; concrete methods are frozen dataclasses below."""

    label: ClassVar[str] = ""

    def impute(self, inc: IncompleteDataset, stream: RngStream) -> CompletedDataset:
        """Fill the masked y entries of ``inc``, drawing only from ``stream``."""
        raise ValueError(f"unknown imputation method: {self!r}")


@dataclass(frozen=True)
class Predict(ImputationMethod):
    label: ClassVar[str] = "predict"

    def impute(self, inc, stream):
        return impute_predict(inc)


@dataclass(frozen=True)
class Draw(ImputationMethod):
    label: ClassVar[str] = "draw"

    def impute(self, inc, stream):
        return impute_draw(inc, stream)


@dataclass(frozen=True)
class Pmm(ImputationMethod):
    label: ClassVar[str] = "pmm"

    def impute(self, inc, stream):
        return impute_pmm(inc, stream)


@dataclass(frozen=True)
class SoftImpute(ImputationMethod):
    label: ClassVar[str] = "softimpute"

    def impute(self, inc, stream):
        return impute_softimpute(inc)


@dataclass(frozen=True)
class Forest(ImputationMethod):
    params: ForestParams = field(default_factory=ForestParams)

    label: ClassVar[str] = "forest"

    def impute(self, inc, stream):
        return impute_forest(inc, self, stream)


def impute_predict(inc: IncompleteDataset) -> CompletedDataset:
    """Fill masked y with fitted values from OLS on the observed rows."""
    keep = ~inc.mask
    fit = fit_ols(inc.x1[keep], inc.x2[keep], inc.y[keep])
    values = predict(fit.coefficients, inc.x1[inc.mask], inc.x2[inc.mask])
    return CompletedDataset.from_imputation(inc, values, Predict())


def impute_draw(inc: IncompleteDataset, stream: RngStream) -> CompletedDataset:
    """Fill masked y with fitted values plus N(0, sigma2) residual noise."""
    keep = ~inc.mask
    fit = fit_ols(inc.x1[keep], inc.x2[keep], inc.y[keep])
    fitted = predict(fit.coefficients, inc.x1[inc.mask], inc.x2[inc.mask])
    noise = math.sqrt(fit.residual_variance) * stream.generator.standard_normal(inc.n_missing)
    return CompletedDataset.from_imputation(inc, fitted + noise, Draw())


def impute_pmm(inc: IncompleteDataset, stream: RngStream) -> CompletedDataset:
    """Type-1 predictive mean matching.

    Observed rows are scored with the OLS coefficients, missing rows with
    a Bayesian parameter draw; each missing row copies the observed y of
    one of its PMM_DONORS nearest neighbours in predicted value, chosen
    uniformly. Stream order: posterior draw first, then donor picks.
    """
    if PMM_DONORS > inc.n_observed:
        raise ValueError(f"{PMM_DONORS} donors exceed the {inc.n_observed} observed rows")
    keep = ~inc.mask
    x1_obs, x2_obs, y_obs = inc.x1[keep], inc.x2[keep], inc.y[keep]
    fit = fit_ols(x1_obs, x2_obs, y_obs)
    yhat_obs = predict(fit.coefficients, x1_obs, x2_obs)
    beta_star, _ = bayes_param_draw(fit, stream)
    yhat_mis = predict(beta_star, inc.x1[inc.mask], inc.x2[inc.mask])

    n_mis = inc.n_missing
    dist = np.abs(yhat_obs[None, :] - yhat_mis[:, None])
    if PMM_DONORS < dist.shape[1]:
        pool = np.argpartition(dist, PMM_DONORS - 1, axis=1)[:, :PMM_DONORS]
    else:
        pool = np.broadcast_to(np.arange(dist.shape[1]), dist.shape).copy()
    pick = stream.generator.integers(0, pool.shape[1], size=n_mis)
    donor_idx = pool[np.arange(n_mis), pick]
    return CompletedDataset.from_imputation(inc, y_obs[donor_idx], Pmm())


def impute_softimpute(inc: IncompleteDataset) -> CompletedDataset:
    """Fill masked y on the uncentred total-least-squares plane of the observed rows.

    This is the fixed point of rank-2 ALS on raw (x1, x2, y) with no ridge
    and holes only in y: the plane orthogonal to the last right singular
    vector v of the observed rows, so y = -(v1*x1 + v2*x2) / v3.
    """
    if inc.n_observed < 3:
        raise ValueError(f"softimpute needs at least 3 observed rows, got {inc.n_observed}")
    observed = np.column_stack([inc.x1, inc.x2, inc.y])[~inc.mask]
    v = np.linalg.svd(observed, full_matrices=False)[2][-1]
    values = -(v[0] * inc.x1[inc.mask] + v[1] * inc.x2[inc.mask]) / v[2]
    return CompletedDataset.from_imputation(inc, values, SoftImpute())
