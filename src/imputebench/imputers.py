"""The five imputation methods; each method object imputes a block.

A method's one entry is ``impute_block(block, streams)``: it takes an
``ampute.IncompleteBlock`` of k datasets and one stream per dataset, and
returns the completed y of every dataset as a (k, n) block, so a single
dataset is imputed as the block of one. ``predict`` and ``draw`` are the
two regression imputers (conditional mean, and conditional mean plus
residual noise); they fit each dataset alone but fill the block at once.
``pmm`` is type-1 predictive mean matching. All three fit
``linmodel.fit_ols``, y on (x1, x2), to the observed rows' columns.
``softimpute`` is rank-2 matrix completion of (x1, x2, y); with holes
only in y and no penalty, its fixed point is the uncentred
total-least-squares plane of the observed rows, which it computes
directly (the iterative ALS that reaches the same point is a test
reference). pmm, softimpute and the forest (``forest.impute_forest``)
impute one dataset at a time: each has a public body that takes one
dataset's 1-D x1, x2, y and mask plus its stream and returns the values
at the mask, and ``_each_row`` fills the block from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .ampute import IncompleteBlock
from .forest import PASS_ROWS, impute_forest
from .linmodel import bayes_param_draw, fit_ols, predict
from .stochastics import RngStream

# pmm copies y from one of this many nearest observed rows
PMM_DONORS = 5


class ImputationMethod:
    """Base class; concrete methods are frozen dataclasses below."""

    label: ClassVar[str] = ""

    def impute_block(self, block: IncompleteBlock, streams: Sequence[RngStream]) -> np.ndarray:
        """The completed y of each dataset of ``block``, as a read-only (k, n) block.

        Dataset i draws only from streams[i], so its completion does not
        depend on the other rows of the block.
        """
        raise ValueError(f"unknown imputation method: {self!r}")


@dataclass(frozen=True)
class Predict(ImputationMethod):
    label: ClassVar[str] = "predict"

    def impute_block(self, block, streams):
        return block.filled(_predict_values(block)[0])


@dataclass(frozen=True)
class Draw(ImputationMethod):
    label: ClassVar[str] = "draw"

    def impute_block(self, block, streams):
        return block.filled(_draw_values(block, streams))


@dataclass(frozen=True)
class Pmm(ImputationMethod):
    label: ClassVar[str] = "pmm"

    def impute_block(self, block, streams):
        return _each_row(block, streams, impute_pmm)


@dataclass(frozen=True)
class SoftImpute(ImputationMethod):
    label: ClassVar[str] = "softimpute"

    def impute_block(self, block, streams):
        return _each_row(block, streams, impute_softimpute)


@dataclass(frozen=True)
class Forest(ImputationMethod):
    """Forest imputation with n_trees trees; the split rules are forest's fixed settings."""

    n_trees: int = 100

    label: ClassVar[str] = "forest"

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be at least 1, got {self.n_trees}")

    def impute_block(self, block, streams):
        return _each_row(block, streams, impute_forest, n_trees=self.n_trees)


def _each_row(
    block: IncompleteBlock, streams: Sequence[RngStream], impute, **options
) -> np.ndarray:
    """The completed y block from impute(x1, x2, y, mask, stream, **options) of each row.

    impute returns one row's values at its mask; the block is filled
    once with all of them.
    """
    rows = zip(block.x1, block.x2, block.y, block.mask, streams)
    return block.filled(np.concatenate([impute(*row, **options) for row in rows]))


def _predict_values(block: IncompleteBlock) -> tuple[np.ndarray, np.ndarray]:
    """Each dataset's fitted values at its masked entries, row-major, and residual variances.

    Dataset i is fitted alone by OLS on its observed rows (fit_ols), and
    its fitted values are b0 + b1 x1 + b2 x2 with its own b.
    """
    fits = []
    for x1, x2, y, mask in zip(block.x1, block.x2, block.y, block.mask):
        keep = ~mask
        fits.append(fit_ols(x1[keep], x2[keep], y[keep]))
    coefficients = np.array([fit.coefficients for fit in fits])
    fitted = predict(coefficients.T[:, :, None], block.x1, block.x2)
    residual_variance = np.array([fit.residual_variance for fit in fits])
    return fitted.take(np.flatnonzero(block.mask)), residual_variance


def _draw_values(block: IncompleteBlock, streams: Sequence[RngStream]) -> np.ndarray:
    """The fitted values of _predict_values plus N(0, sigma2_i) noise.

    Dataset i draws its one normal per masked entry from streams[i].
    """
    fitted, residual_variance = _predict_values(block)
    n_missing = np.count_nonzero(block.mask, axis=1)
    noise = np.concatenate(
        [stream.generator.standard_normal(m) for stream, m in zip(streams, n_missing)]
    )
    return fitted + np.repeat(np.sqrt(residual_variance), n_missing) * noise


def impute_pmm(
    x1: np.ndarray, x2: np.ndarray, y: np.ndarray, mask: np.ndarray, stream: RngStream
) -> np.ndarray:
    """Type-1 predictive mean matching of one dataset: its values at mask.

    Observed rows are scored with the OLS coefficients, missing rows with
    a Bayesian parameter draw; each missing row copies the observed y of
    one of its PMM_DONORS nearest neighbours in predicted value, chosen
    uniformly. Stream order: posterior draw first, then donor picks.

    The donor search runs over blocks of missing rows, about
    forest.PASS_ROWS distances a block. argpartition orders each row of
    its distance matrix on that row alone, so every missing row's donors
    come out in the order the full n_mis x n_obs search gives them.
    """
    keep = ~mask
    x1_obs, x2_obs, y_obs = x1[keep], x2[keep], y[keep]
    n_obs = y_obs.size
    if PMM_DONORS > n_obs:
        raise ValueError(f"{PMM_DONORS} donors exceed the {n_obs} observed rows")
    fit = fit_ols(x1_obs, x2_obs, y_obs)
    yhat_obs = predict(fit.coefficients, x1_obs, x2_obs)
    beta_star, _ = bayes_param_draw(fit, stream)
    yhat_mis = predict(beta_star, x1[mask], x2[mask])

    n_mis = yhat_mis.size
    if PMM_DONORS < n_obs:
        pool = np.empty((n_mis, PMM_DONORS), dtype=np.intp)
        step = max(1, PASS_ROWS // n_obs)
        for first in range(0, n_mis, step):
            rows = slice(first, first + step)
            dist = np.abs(yhat_obs[None, :] - yhat_mis[rows, None])
            pool[rows] = np.argpartition(dist, PMM_DONORS - 1, axis=1)[:, :PMM_DONORS]
    else:
        pool = np.broadcast_to(np.arange(n_obs), (n_mis, n_obs))
    pick = stream.generator.integers(0, pool.shape[1], size=n_mis)
    return y_obs[pool[np.arange(n_mis), pick]]


def impute_softimpute(
    x1: np.ndarray, x2: np.ndarray, y: np.ndarray, mask: np.ndarray, stream: RngStream
) -> np.ndarray:
    """One dataset's values at mask on the uncentred total-least-squares plane.

    This is the fixed point of rank-2 ALS on raw (x1, x2, y) with no ridge
    and holes only in y: the plane orthogonal to the last right singular
    vector v of the observed rows, so y = -(v1*x1 + v2*x2) / v3. It draws
    nothing; stream is unused.
    """
    observed = np.column_stack([x1, x2, y])[~mask]
    if observed.shape[0] < 3:
        raise ValueError(f"softimpute needs at least 3 observed rows, got {observed.shape[0]}")
    v = np.linalg.svd(observed, full_matrices=False)[2][-1]
    return -(v[0] * x1[mask] + v[1] * x2[mask]) / v[2]
