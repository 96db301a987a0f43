"""The five imputation methods; each method object imputes itself.

``predict`` and ``draw`` are the two regression imputers (conditional
mean, and conditional mean plus residual noise). ``pmm`` is type-1
predictive mean matching. ``softimpute`` is low-rank matrix completion
by alternating least squares. The forest imputer lives in its own module;
:class:`Forest` is its method object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .ampute import CompletedDataset, IncompleteDataset
from .forest import ForestParams, impute_forest
from .linmodel import DesignSpec, bayes_param_draw, design_matrix, fit_ols, predict
from .stochastics import RngStream

# the imputation model of every regression-based method: y on both predictors
IMPUTE_DESIGN = DesignSpec(response="y", predictors=("x1", "x2"))
# pmm copies y from one of this many nearest observed rows
PMM_DONORS = 5
# softimpute: rank-2 ALS with no ridge penalty, run to a relative
# objective change of SOFT_TOL or SOFT_MAX_ITER iterations
SOFT_RANK = 2
SOFT_RIDGE = 0.0
SOFT_MAX_ITER = 200
SOFT_TOL = 1e-5


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
        return impute_softimpute(inc, stream)


@dataclass(frozen=True)
class Forest(ImputationMethod):
    params: ForestParams = field(default_factory=ForestParams)

    label: ClassVar[str] = "forest"

    def impute(self, inc, stream):
        return impute_forest(inc, self, stream)


def impute_predict(inc: IncompleteDataset) -> CompletedDataset:
    """Fill masked y with fitted values from OLS on the observed rows."""
    fit = fit_ols(inc.observed_rows(), IMPUTE_DESIGN)
    values = predict(fit, inc.missing_rows())
    return CompletedDataset.from_imputation(inc, values, Predict())


def impute_draw(inc: IncompleteDataset, stream: RngStream) -> CompletedDataset:
    """Fill masked y with fitted values plus N(0, sigma2) residual noise."""
    fit = fit_ols(inc.observed_rows(), IMPUTE_DESIGN)
    x_mis = design_matrix(inc.missing_rows(), IMPUTE_DESIGN)
    noise = math.sqrt(fit.residual_variance) * stream.generator.standard_normal(inc.n_missing)
    return CompletedDataset.from_imputation(inc, x_mis @ fit.coefficients + noise, Draw())


def impute_pmm(inc: IncompleteDataset, stream: RngStream) -> CompletedDataset:
    """Type-1 predictive mean matching.

    Observed rows are scored with the OLS coefficients, missing rows with
    a Bayesian parameter draw; each missing row copies the observed y of
    one of its PMM_DONORS nearest neighbours in predicted value, chosen
    uniformly. Stream order: posterior draw first, then donor picks.
    """
    if PMM_DONORS > inc.n_observed:
        raise ValueError(f"{PMM_DONORS} donors exceed the {inc.n_observed} observed rows")
    obs = inc.observed_rows()
    fit = fit_ols(obs, IMPUTE_DESIGN)
    yhat_obs = predict(fit, obs)
    beta_star, _ = bayes_param_draw(fit, stream)
    yhat_mis = design_matrix(inc.missing_rows(), IMPUTE_DESIGN) @ beta_star

    n_mis = inc.n_missing
    if n_mis == 0:
        return CompletedDataset.from_imputation(inc, np.empty(0), Pmm())
    dist = np.abs(yhat_obs[None, :] - yhat_mis[:, None])
    if PMM_DONORS < dist.shape[1]:
        pool = np.argpartition(dist, PMM_DONORS - 1, axis=1)[:, :PMM_DONORS]
    else:
        pool = np.broadcast_to(np.arange(dist.shape[1]), dist.shape).copy()
    pick = stream.generator.integers(0, pool.shape[1], size=n_mis)
    donor_idx = pool[np.arange(n_mis), pick]
    return CompletedDataset.from_imputation(inc, obs["y"][donor_idx], Pmm())


def als_matrix_complete(
    matrix: np.ndarray,
    rank_max: int,
    ridge: float,
    max_iter: int,
    tol: float,
    stream: RngStream,
) -> tuple[np.ndarray, list[float], bool]:
    """Complete a matrix with NaN holes by rank-constrained ALS.

    Factorizes as A @ B.T with rank <= rank_max, minimizing the squared
    error over observed entries plus ridge * (|A|^2 + |B|^2). Each half
    step is a ridge regression against the matrix refilled with the
    current predictions at the holes; refilling makes the step an exact
    majorize-minimize move on the observed-entry objective, so the
    objective never increases, and it pins hole predictions to the
    global low-rank structure instead of letting per-row systems run
    free. Returns the reconstruction, the objective value at start and
    after every iteration, and a convergence flag.
    """
    m = np.asarray(matrix, dtype=np.float64)
    observed = np.isfinite(m)
    n_rows, n_cols = m.shape
    rank = min(rank_max, n_rows, n_cols)
    holes = ~observed

    a = stream.generator.standard_normal(n_rows * rank).reshape(n_rows, rank)
    b = np.zeros((n_cols, rank))
    filled = np.where(observed, m, 0.0)  # holes start at the b = 0 prediction

    def objective() -> float:
        resid = (m - a @ b.T)[observed]
        penalty = ridge * (float(np.sum(a * a)) + float(np.sum(b * b)))
        return float(resid @ resid) + penalty

    def refill() -> None:
        recon = a @ b.T
        filled[holes] = recon[holes]

    objectives = [objective()]
    floor = 1e-12 * objectives[0] + np.finfo(float).tiny
    converged = False
    for _ in range(max_iter):
        b = _gram_solve(a.T @ a, a.T @ filled, ridge).T
        refill()
        a = _gram_solve(b.T @ b, b.T @ filled.T, ridge).T
        refill()
        objectives.append(objective())
        prev, cur = objectives[-2], objectives[-1]
        if abs(prev - cur) <= tol * max(prev, np.finfo(float).tiny) or cur <= floor:
            converged = True
            break
    return a @ b.T, objectives, converged


def _gram_solve(gram: np.ndarray, rhs: np.ndarray, ridge: float) -> np.ndarray:
    """Solve (gram + ridge I) w = rhs column-wise; pseudoinverse fallback."""
    if ridge > 0:
        return np.linalg.solve(gram + ridge * np.eye(gram.shape[0]), rhs)
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(gram) @ rhs


def impute_softimpute(inc: IncompleteDataset, stream: RngStream) -> CompletedDataset:
    """Fill masked y from the low-rank ALS reconstruction of raw (x1, x2, y)."""
    matrix = np.column_stack([inc.x1, inc.x2, inc.y])
    recon, _, converged = als_matrix_complete(
        matrix, SOFT_RANK, SOFT_RIDGE, SOFT_MAX_ITER, SOFT_TOL, stream
    )
    return CompletedDataset.from_imputation(
        inc, recon[inc.mask, 2], SoftImpute(), converged=converged
    )


def impute_dispatch(
    inc: IncompleteDataset, method: ImputationMethod, stream: RngStream
) -> CompletedDataset:
    """Impute ``inc`` with ``method``; the same as ``method.impute(inc, stream)``."""
    return method.impute(inc, stream)
