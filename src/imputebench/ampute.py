"""Inject missingness into the outcome column.

Two mechanisms: MCAR masks rows independently at the fixed rate PROP,
and a right-censoring MAR variant masks with probability increasing in
x1, calibrated by a logistic shift so the expected masked proportion is
PROP. _solve_shifts finds the shifts of a whole block in one loop of
Newton steps, each kept inside a bracket read off its row's scores.
Only y is ever masked; the original outcome is carried along for
evaluation but kept out of reach of the imputation path.

IncompleteBlock is the one incomplete container: k masked datasets as
(k, n) blocks, a single dataset being the block of one, so ampute
returns a one-row block and the harness masks a block of replications
at once. CompletedDataset is the input of downstream.estimate_params.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from enum import Enum

import numpy as np

from .datagen import Dataset, _trusted
from .stochastics import RngStream

# expected share of masked y entries under either mechanism
PROP = 0.5
_SHIFT_TOL = 1e-8
_MAX_ROUNDS = 200


class Mechanism(Enum):
    MCAR = "MCAR"
    MAR_RIGHT = "MAR"

    @property
    def label(self) -> str:
        return self.value


@dataclass(frozen=True)
class IncompleteBlock:
    """k incomplete datasets of n rows as read-only (k, n) blocks.

    Row i of each column is dataset i; a single dataset is the block of
    one. y carries NaN at masked positions; truth_y retains the
    pre-masking values and exists for evaluation only. No imputer may
    read it. The checks here run on blocks built by hand; the harness
    cuts its blocks from a validated population with datagen._trusted.
    """

    x1: np.ndarray
    x2: np.ndarray
    y: np.ndarray
    mask: np.ndarray
    truth_y: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.mask)
        if len(shape) != 2:
            raise ValueError(f"mask must be a (k, n) block, got shape {shape}")
        for name in ("x1", "x2", "y", "mask", "truth_y"):
            col = np.array(getattr(self, name), dtype=bool if name == "mask" else np.float64)
            if col.shape != shape:
                raise ValueError(f"column {name} has shape {col.shape}, the mask {shape}")
            col.flags.writeable = False
            object.__setattr__(self, name, col)
        for name in ("x1", "x2", "truth_y"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"column {name} contains non-finite values")
        if not np.isnan(self.y[self.mask]).all():
            raise ValueError("masked y entries must be NaN")
        if not np.isfinite(self.y[~self.mask]).all():
            raise ValueError("unmasked y entries must be finite")

    def filled(self, values: np.ndarray) -> np.ndarray:
        """The read-only completed y block: y with values at mask, in row-major order.

        Observed entries are carried over unchanged, so they stay
        bit-identical by construction. values must be finite, one per
        masked entry.
        """
        at = np.flatnonzero(self.mask)
        if np.shape(values) != at.shape:
            raise ValueError(f"expected {at.size} imputed values, got shape {np.shape(values)}")
        if not np.isfinite(values).all():
            raise ValueError("column y contains non-finite values")
        out = self.y.copy()
        out.reshape(-1)[at] = values
        out.flags.writeable = False
        return out


@dataclass(frozen=True)
class CompletedDataset:
    """An imputed dataset, the input of downstream.estimate_params.

    data holds the completed columns and imputed_mask the filled rows of
    y. method, the imputation method or None, is accepted for callers
    that name it and is not stored: no estimate reads it.
    """

    data: Dataset
    imputed_mask: np.ndarray
    method: InitVar[object] = None

    def __post_init__(self, method):
        mask = np.array(self.imputed_mask, dtype=bool)
        mask.flags.writeable = False
        object.__setattr__(self, "imputed_mask", mask)
        if mask.size != len(self.data):
            raise ValueError("imputed_mask length must match the dataset")


def _logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)); below x = -709 exp overflows to inf and this is 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _solve_shifts(scores: np.ndarray, prop: float) -> np.ndarray:
    """Each row's shift b with mean(logistic(row + b)) = prop, for a (k, n) block.

    The mean masking probability is strictly increasing in b, and every
    probability is at most prop at b = logit(prop) - max(row) and at
    least prop at b = logit(prop) - min(row), so those two shifts
    bracket the row's root. From b = 0 each round makes one _logistic
    pass over the unfinished rows. A row stops once its calibration
    error is below 1e-8 (well inside the 1e-6 contract); otherwise the
    sign of its error narrows its bracket, and it takes the Newton step,
    or the bracket's midpoint when that step is not strictly inside.
    Scores so large that float spacing leaves no shift within 1e-8 of
    prop raise ValueError after _MAX_ROUNDS rounds.

    np.add.reduce along axis 1 gives each row the bits of its own sum,
    so a row's shift is the one it gets as the block of one, and a block
    takes as many passes as its slowest row.
    """
    if scores.shape[1] == 0 or not np.isfinite(scores).all():
        raise ValueError("scores must be non-empty and finite")
    if not 0.0 < prop < 1.0:
        raise ValueError(f"prop must lie strictly in (0,1), got {prop}")
    n = scores.shape[1]
    logit = math.log(prop / (1.0 - prop))
    low, high = logit - scores.max(axis=1), logit - scores.min(axis=1)
    shifts, b = np.zeros(scores.shape[0]), np.zeros(scores.shape[0])
    rows = np.arange(scores.shape[0])
    for _ in range(_MAX_ROUNDS):
        with np.errstate(over="ignore"):  # a score near the float maximum plus b
            p = _logistic(scores[rows] + b[:, None])
        gap = np.add.reduce(p, axis=1) / n - prop
        done = np.abs(gap) < _SHIFT_TOL
        shifts[rows[done]] = b[done]
        if done.all():
            return shifts
        left = ~done
        slope = np.add.reduce(p * (1.0 - p), axis=1)[left] / n
        rows, b, gap, low, high = rows[left], b[left], gap[left], low[left], high[left]
        low = np.where(gap < 0, np.maximum(low, b), low)
        high = np.where(gap > 0, np.minimum(high, b), high)
        with np.errstate(divide="ignore", over="ignore"):  # a zero or tiny slope
            step = b - gap / slope
        # halve the ends first: near the float maximum low + high overflows
        b = np.where((low < step) & (step < high), step, 0.5 * low + 0.5 * high)
    raise ValueError(f"no shift calibrates the scores to prop {prop}: gap {gap[0]:.3g} remains")


def _ampute_block(
    x1: np.ndarray, x2: np.ndarray, y: np.ndarray, mechanism: Mechanism, u: np.ndarray
) -> IncompleteBlock:
    """The IncompleteBlock of (k, n) blocks cut from a validated Dataset, masked by mechanism.

    Row i is masked from its own uniform draws u[i], as ampute
    describes; the arithmetic, MAR's shift solve among it, runs once on
    the block. Row sums are np.add.reduce along axis 1, which on a
    C-contiguous block sums each row exactly as it sums the row alone,
    so no row's score, shift or mask depends on the others. y then gets
    its holes once for the whole block, and nothing is checked again:
    x1, x2 and y are finite already and the holes are exactly where the
    mask is true.
    """
    n = x1.shape[1]
    if mechanism is Mechanism.MCAR:
        probs = PROP
    else:
        with np.errstate(over="ignore"):
            c = x1 - np.add.reduce(x1, axis=1, keepdims=True) / n  # np.std's own steps
            ss = np.add.reduce(c * c, axis=1, keepdims=True)
        for r in np.flatnonzero(~np.isfinite(ss)):  # x1 so large that its sum or squares overflow
            row = x1[r] / np.abs(x1[r]).max()
            c[r] = row - np.add.reduce(row) / n
            ss[r] = np.add.reduce(c[r] * c[r])
        sd = np.sqrt(ss / n)
        if not ((sd != 0.0) & np.isfinite(sd)).all():
            raise ValueError("amputation scores are constant: x1 does not vary")
        score = c / sd
        probs = _logistic(score + _solve_shifts(score, PROP)[:, None])
    mask = u < probs
    mask.flags.writeable = False
    holes = y.copy()
    holes.reshape(-1)[np.flatnonzero(mask)] = np.nan
    holes.flags.writeable = False
    return _trusted(IncompleteBlock, x1=x1, x2=x2, y=holes, mask=mask, truth_y=y)


def ampute(data: Dataset, mechanism: Mechanism, stream: RngStream) -> IncompleteBlock:
    """Mask y entries of data by mechanism, as the block of one dataset.

    MCAR compares one uniform draw per row against PROP. MAR compares it
    against logistic(score + b): the score is standardized x1, and b is
    calibrated by _solve_shifts so the expected proportion is within
    1e-8 of PROP. Rows with high x1 are censored more. This is the
    one-row block of _ampute_block; _solve_shifts draws nothing, so
    drawing first moves no bit.
    """
    u = stream.generator.random(len(data))
    x1, x2, y = (col[None, :] for col in (data.x1, data.x2, data.y))
    return _ampute_block(x1, x2, y, mechanism, u[None, :])
