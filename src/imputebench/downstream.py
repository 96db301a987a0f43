"""Downstream estimates on a completed dataset, and the MSE split.

Everything a results table reports is computed here: moments of the
completed outcome, its tail share past the truth's 90th percentile, the
forward regression y ~ x1 + x2, the reverse regression x1 ~ y + x2, and
the imputation error itself. The error is reported twice on purpose:
averaged over all rows and averaged over only the masked rows, which
differ exactly by the masked fraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ampute import CompletedDataset, IncompleteDataset
from .datagen import Dataset, ParamSet, PopulationSpec, coefficients
from .imputers import ImputationMethod
from .linmodel import DesignSpec, fit_ols, r_squared
from .stochastics import RngStream

_FORWARD = DesignSpec(response="y", predictors=("x1", "x2"))
_REVERSE = DesignSpec(response="x1", predictors=("y", "x2"))


@dataclass(frozen=True)
class DecompositionResult:
    """Additive split of the per-missing-row MSE.

    total is the directly measured error; bias_sq + variance + noise
    approximates it (the gap is sampling noise, reported not enforced).
    """

    bias_sq: float
    variance: float
    noise: float
    total: float

    def __post_init__(self):
        if self.bias_sq < 0 or self.variance < 0 or self.noise < 0:
            raise ValueError("decomposition components must be non-negative")


def quantile(values, q: float) -> float:
    """Linear-interpolation sample quantile: h = (n-1)q between order stats."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("quantile of an empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0,1], got {q}")
    return float(np.quantile(arr, q))


def estimate_params(completed: CompletedDataset, truth: Dataset) -> ParamSet:
    """All reported parameters of a completed dataset against its truth.

    The P90 cutpoint is the 0.9 quantile of the truth sample, recomputed
    per call. gamma and r2_y come from the forward fit on the completed
    columns; delta and r2_x from the reverse fit with the completed y as
    a predictor of x1.
    """
    if len(completed.data) != len(truth):
        raise ValueError("completed and truth datasets must be row-aligned")
    ydot = completed.data.y
    x1 = completed.data.x1
    n = ydot.size

    mu = float(np.mean(ydot))
    sigma = float(np.std(ydot, ddof=1))
    if sigma == 0.0 or float(np.std(x1)) == 0.0:
        raise ValueError("zero-variance column; downstream parameters undefined")
    p90 = 100.0 * float(np.mean(ydot > quantile(truth.y, 0.9)))
    rho = float(np.corrcoef(ydot, x1)[0, 1])

    forward = fit_ols(completed.data, _FORWARD)
    gamma = float(forward.coefficients[1])
    r2_y = min(max(r_squared(forward, completed.data), 0.0), 1.0)

    reverse = fit_ols(completed.data, _REVERSE)
    delta = float(reverse.coefficients[1])
    r2_x = min(max(r_squared(reverse, completed.data), 0.0), 1.0)

    sq_err = (truth.y - ydot) ** 2
    mse_full = float(np.mean(sq_err))
    n_missing = int(np.count_nonzero(completed.imputed_mask))
    mse_missing = float(np.mean(sq_err[completed.imputed_mask])) if n_missing else 0.0
    return ParamSet(
        mu=mu,
        sigma=sigma,
        p90=p90,
        rho=rho,
        gamma=gamma,
        r2_y=r2_y,
        delta=delta,
        r2_x=r2_x,
        mse_full=mse_full,
        mse_missing=mse_missing,
    )


def decompose_mse(
    inc: IncompleteDataset,
    truth: Dataset,
    method: ImputationMethod,
    repeats: int,
    stream: RngStream,
    population: PopulationSpec,
) -> DecompositionResult:
    """Split the imputation MSE into bias^2 + variance + noise.

    The same incomplete dataset is imputed ``repeats`` times on child
    streams 1..repeats. Per masked row, bias is measured against the
    generator's noiseless surface beta1*x1 + beta2*x2 (the generator is
    known, so no surface estimate is needed), variance is the
    across-repeat variance of the imputed value, and noise is the
    generator's irreducible sigma^2 = 1 - r_squared. total is the mean
    across repeats of the per-missing-row MSE.
    """
    if repeats < 2:
        raise ValueError(f"repeats must be at least 2, got {repeats}")
    if inc.n_missing == 0:
        raise ValueError("no rows are masked; the imputation MSE is undefined")
    beta1, beta2, noise_sd = coefficients(population)
    mis = inc.missing_rows()
    surface = beta1 * mis["x1"] + beta2 * mis["x2"]
    truth_mis = truth.y[inc.mask]

    draws = np.empty((repeats, inc.n_missing))
    for r in range(1, repeats + 1):
        completed = method.impute(inc, stream.child(r))
        draws[r - 1] = completed.data.y[inc.mask]

    center = draws.mean(axis=0)
    bias_sq = float(np.mean((center - surface) ** 2))
    variance = float(np.mean(draws.var(axis=0)))
    total = float(np.mean((draws - truth_mis) ** 2))
    return DecompositionResult(
        bias_sq=bias_sq, variance=variance, noise=noise_sd**2, total=total
    )
