"""Downstream estimates on a completed dataset, and the MSE split.

Everything a results table reports is computed here: the mean of the
completed outcome, its tail share past the truth's 90th percentile, the
imputation error itself, and from one sample covariance matrix of
(x1, x2, y) its sd, its correlation with x1, the forward regression
y ~ x1 + x2 and the reverse regression x1 ~ y + x2. The error is
reported twice on purpose: averaged over all rows and averaged over only
the masked rows, which differ exactly by the masked fraction. The MSE
split imputes one incomplete block repeatedly and scores it against that
block's own truth_y, so it cannot be handed a truth that disagrees with
what it imputed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .ampute import CompletedDataset, IncompleteBlock
from .datagen import (
    Dataset,
    ParamSet,
    PopulationSpec,
    _check_params,
    _row_sums,
    coefficients,
    moment_params,
)
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


def _quantile_rows(rows: np.ndarray, q: float) -> np.ndarray:
    """Linear-interpolation quantile of each row of a (k, n) block: h = (n-1)q.

    Equal under == to np.quantile(row, q) of each row. With lo = floor(h)
    and hi = lo + 1 (both capped at n-1), a is the lo-th order statistic,
    from one partition along axis 1 on lo alone (numpy's multi-kth
    partition costs several single ones), and b the hi-th, the least value
    right of a; then a + (b-a)g with g = h - lo, or b - (b-a)(1-g) when
    g >= 0.5. These are numpy's order statistics, up to the sign of a
    zero, which compares equal. Non-finite values raise ValueError.
    """
    if rows.shape[1] == 0:
        raise ValueError("quantile of an empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0,1], got {q}")
    if not np.isfinite(rows).all():
        raise ValueError("quantile of non-finite values")
    last = rows.shape[1] - 1
    h = last * q
    lo = min(math.floor(h), last)
    part = np.partition(rows, lo, axis=1)
    a, g = part[:, lo], h - lo
    b = part[:, lo + 1:].min(axis=1) if lo < last else a
    return a + (b - a) * g if g < 0.5 else b - (b - a) * (1.0 - g)


def estimate_params(completed: CompletedDataset, truth: Dataset) -> ParamSet:
    """All reported parameters of a completed dataset against its truth.

    The P90 cutpoint is the 0.9 quantile of the truth sample, recomputed
    per call. sigma, rho, gamma, r2_y, delta and r2_x come from the
    sample covariance (ddof 1) of the completed (x1, x2, y) through
    datagen.moment_params, the algebra of the analytic truth. Before any
    arithmetic, fewer than 4 rows or a constant column raise ValueError,
    and so does a column whose centred products overflow. This is the
    one-row block of _estimate_rows.
    """
    data = completed.data
    if len(data) != len(truth):
        raise ValueError("completed and truth datasets must be row-aligned")
    columns = (data.x1, data.x2, data.y, truth.y, completed.imputed_mask)
    return ParamSet.from_array(_estimate_rows(*(col[None, :] for col in columns))[0])


def _estimate_rows(
    x1: np.ndarray, x2: np.ndarray, y: np.ndarray, truth_y: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """estimate_params of each row of C-contiguous (k, n) blocks, in one pass.

    Row t of x1, x2 and y is a completed dataset, row t of truth_y its
    truth and row t of mask its imputed rows; row t of the (k, 10) result
    holds its ParamSet fields in field order. Every sum is np.add.reduce
    along the rows (a pairwise sum, not a BLAS dot, whose bits depend on
    its thread count), which sums each row of the block exactly as it
    sums the row alone, so no row's estimate depends on the others. A
    row that fails a check fails the block with its own message.

    Two scratch blocks carry the covariance: for each column i, left
    holds its centred values, and product holds left times centred
    column j >= i, centred in place first. Each centred value and each
    product is the same operation on the same operands as with all three
    centred columns kept, and every sum reduces the same full array in
    the same (i, j) order, so no bit depends on the scratch layout.
    product then holds the squared errors, so at most two (k, n) blocks
    are alive above the inputs.
    """
    k, n = y.shape
    if n <= 3:
        raise ValueError(f"need more than 3 rows, got {n}")
    names, cols = ("x1", "x2", "y"), (x1, x2, y)
    for name, col in zip(names, cols):
        if (col.min(axis=1) == col.max(axis=1)).any():
            raise ValueError(f"column {name} is constant; downstream parameters undefined")

    left, product = np.empty((k, n)), np.empty((k, n))
    with np.errstate(over="ignore", invalid="ignore"):
        means = [np.add.reduce(col, axis=1, keepdims=True) / n for col in cols]
        cov = np.empty((k, 3, 3))
        for i, j in combinations_with_replacement(range(3), 2):
            if i == j:
                np.subtract(cols[i], means[i], out=left)
                np.multiply(left, left, out=product)
            else:
                np.subtract(cols[j], means[j], out=product)
                np.multiply(left, product, out=product)
            cov[:, i, j] = cov[:, j, i] = np.add.reduce(product, axis=1) / (n - 1)
    del left
    for i, name in enumerate(names):  # the off-diagonal sums are bounded by these
        if not np.isfinite(cov[:, i, i]).all():
            raise ValueError(f"column {name} is too large: its centred squares overflow")

    sq_err = np.square(np.subtract(truth_y, y, out=product), out=product)
    n_missing = np.count_nonzero(mask, axis=1)
    mse_missing = np.zeros(k)
    sq_mis = sq_err.take(np.flatnonzero(mask))
    np.divide(_row_sums(sq_mis, n_missing), n_missing, out=mse_missing, where=n_missing > 0)
    fields = {
        "mu": means[2][:, 0],
        "p90": 100.0 * (np.count_nonzero(y > _quantile_rows(truth_y, 0.9)[:, None], axis=1) / n),
        "mse_full": np.add.reduce(sq_err, axis=1) / n,
        "mse_missing": mse_missing,
        **moment_params(cov),
    }
    out = np.column_stack([fields[name] for name in ParamSet.field_names()])
    _check_params(out)
    return out


def decompose_mse(
    inc: IncompleteBlock,
    method: object,
    repeats: int,
    stream: RngStream,
    population: PopulationSpec,
) -> DecompositionResult:
    """Split the imputation MSE of one dataset into bias^2 + variance + noise.

    inc is the block of one incomplete dataset; its truth_y is the
    complete sample's y, the truth every imputation is scored against.
    method, an imputers.ImputationMethod, imputes it ``repeats`` times
    through impute_block, on child streams 1..repeats. Per masked
    row, bias is measured against the generator's noiseless surface
    beta1*x1 + beta2*x2 (the generator is known, so no surface estimate
    is needed), variance is the across-repeat variance of the imputed
    value, and noise is the generator's irreducible sigma^2 =
    1 - r_squared. total is the mean across repeats of the
    per-missing-row MSE.
    """
    if repeats < 2:
        raise ValueError(f"repeats must be at least 2, got {repeats}")
    if inc.mask.shape[0] != 1:
        raise ValueError(f"expected the block of one dataset, got {inc.mask.shape[0]} rows")
    mask = inc.mask[0]
    if not mask.any():
        raise ValueError("no rows are masked; the imputation MSE is undefined")
    beta1, beta2, noise_sd = coefficients(population)
    surface = beta1 * inc.x1[0, mask] + beta2 * inc.x2[0, mask]
    truth_mis = inc.truth_y[0, mask]
    children = stream.children(range(1, repeats + 1))
    draws = np.array([method.impute_block(inc, [child])[0, mask] for child in children])

    center = draws.mean(axis=0)
    bias_sq = float(np.mean((center - surface) ** 2))
    variance = float(np.mean(draws.var(axis=0)))
    total = float(np.mean((draws - truth_mis) ** 2))
    return DecompositionResult(
        bias_sq=bias_sq, variance=variance, noise=noise_sd**2, total=total
    )
