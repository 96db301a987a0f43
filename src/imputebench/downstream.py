"""Downstream estimates on a completed dataset, and the MSE split.

Everything a results table reports is computed here: the mean of the
completed outcome, its tail share past the truth's 90th percentile, the
imputation error itself, and from one sample covariance matrix of
(x1, x2, y) its sd, its correlation with x1, the forward regression
y ~ x1 + x2 and the reverse regression x1 ~ y + x2. The error is
reported twice on purpose: averaged over all rows and averaged over only
the masked rows, which differ exactly by the masked fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .ampute import CompletedDataset, IncompleteDataset
from .datagen import Dataset, ParamSet, PopulationSpec, coefficients, moment_params
from .imputers import ImputationMethod
from .stochastics import RngStream


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
    """Linear-interpolation sample quantile: h = (n-1)q between order stats.

    Equal to np.quantile(values, q) under ==, from one partition. As
    numpy does, it partitions on {0, lo, hi, n-1} with lo = floor(h) and
    hi = lo + 1 (both capped at n-1), then takes a + (b-a)g with
    g = h - lo, or b - (b-a)(1-g) when g >= 0.5. Non-finite values raise
    ValueError; they sort to the ends, so the partition shows them.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("quantile of an empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0,1], got {q}")
    last = arr.size - 1
    h = last * q
    lo = min(math.floor(h), last)
    hi = min(lo + 1, last)
    part = np.partition(arr.ravel(), sorted({0, lo, hi, last}))
    if not (math.isfinite(part[0]) and math.isfinite(part[last])):
        raise ValueError("quantile of non-finite values")
    a, b, g = float(part[lo]), float(part[hi]), h - lo
    return a + (b - a) * g if g < 0.5 else b - (b - a) * (1.0 - g)


def estimate_params(completed: CompletedDataset, truth: Dataset) -> ParamSet:
    """All reported parameters of a completed dataset against its truth.

    The P90 cutpoint is the 0.9 quantile of the truth sample, recomputed
    per call. sigma, rho, gamma, r2_y, delta and r2_x come from the
    sample covariance (ddof 1) of the completed (x1, x2, y) through
    datagen.moment_params, the algebra of the analytic truth. Before any
    arithmetic, fewer than 4 rows or a constant column raise ValueError.
    """
    data = completed.data
    n = len(data)
    if n != len(truth):
        raise ValueError("completed and truth datasets must be row-aligned")
    if n <= 3:
        raise ValueError(f"need more than 3 rows, got {n}")
    for name, col in data.columns.items():
        if col.min() == col.max():
            raise ValueError(f"column {name} is constant; downstream parameters undefined")
    ydot = data.y

    mu = float(np.add.reduce(ydot) / n)
    centred = [col - np.add.reduce(col) / n for col in (data.x1, data.x2)] + [ydot - mu]
    cov = np.empty((3, 3))
    for i, j in combinations_with_replacement(range(3), 2):
        # a pairwise sum, not a BLAS dot, whose bits depend on its thread count
        cov[i, j] = cov[j, i] = np.add.reduce(centred[i] * centred[j]) / (n - 1)
    p90 = 100.0 * (np.count_nonzero(ydot > quantile(truth.y, 0.9)) / n)

    sq_err = (truth.y - ydot) ** 2
    mse_full = float(np.add.reduce(sq_err) / n)
    sq_mis = sq_err[completed.imputed_mask]
    mse_missing = float(np.add.reduce(sq_mis) / sq_mis.size) if sq_mis.size else 0.0
    return ParamSet(
        mu=mu, p90=p90, mse_full=mse_full, mse_missing=mse_missing, **moment_params(cov)
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
    surface = beta1 * inc.x1[inc.mask] + beta2 * inc.x2[inc.mask]
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
