"""Inject missingness into the outcome column.

Two mechanisms: MCAR masks rows independently at the fixed rate PROP,
and a right-censoring MAR variant masks with probability increasing in
x1, calibrated by a logistic shift so the expected masked proportion is
PROP. Only y is ever masked; the original outcome is carried along for
evaluation but kept out of reach of the imputation path.

IncompleteBlock is the one incomplete container: k masked datasets as
(k, n) blocks, a single dataset being the block of one, so ampute
returns a one-row block and the harness masks a block of replications
at once. CompletedDataset is the input of downstream.estimate_params.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .datagen import Dataset, _trusted
from .stochastics import RngStream

if TYPE_CHECKING:
    from .imputers import ImputationMethod

# expected share of masked y entries under either mechanism
PROP = 0.5
_SHIFT_TOL = 1e-8
_MAX_BISECT = 200
_NEWTON_STEPS = 6


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
    y; method is the imputation method, or None for data that was never
    masked.
    """

    data: Dataset
    imputed_mask: np.ndarray
    method: "ImputationMethod | None"

    def __post_init__(self):
        mask = np.array(self.imputed_mask, dtype=bool)
        mask.flags.writeable = False
        object.__setattr__(self, "imputed_mask", mask)
        if mask.size != len(self.data):
            raise ValueError("imputed_mask length must match the dataset")


def _logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)); below x = -709 exp overflows to inf and this is 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _shift_search(prop: float):
    """One row's search for its shift, as a coroutine.

    It yields (b, slope) for each shift b whose gap it must evaluate,
    slope true when it also reads the slope there, and is sent back
    (gap, slope); it returns the shift or raises ValueError. The gap is
    mean(logistic(s + b)) - prop and the slope mean(p(1 - p)), both over
    the row's scores s.

    First it certifies a bracket: Newton steps on the gap from b = 0,
    then one probe 4 tol / slope to either side of the last step. Every
    probe whose gap is past -2 tol or 2 tol (tol is _SHIFT_TOL) settles
    that side as `low` or `high`; a probe at +-inf settles nothing. Then
    it bisects on an expanding bracket, stopping once the gap is within
    tol, and evaluates no shift whose outcome is already known: at or
    below `low` the gap is negative and not converged, at or above
    `high` positive and not converged. Float add, divide and mean are
    monotone under rounding and np.exp errs by an ulp or two, so the
    evaluated gap there is past 2 tol - 1e-15 on the same side, and the
    midpoints, the stop and the returned shift are bit-identical to
    evaluating every step.
    """
    low, high = -math.inf, math.inf

    def settle(b: float, g: float) -> None:
        nonlocal low, high
        if g < -2.0 * _SHIFT_TOL:
            low = max(low, b)
        elif g > 2.0 * _SHIFT_TOL:
            high = min(high, b)

    b = 0.0
    for _ in range(_NEWTON_STEPS):
        g, slope = yield b, True
        settle(b, g)
        if not slope > 0.0 or abs(g) < _SHIFT_TOL:
            break
        b -= g / slope
    if slope > 0.0:
        step = 4.0 * _SHIFT_TOL / slope
        for probe in (b - step, b + step):
            settle(probe, (yield probe, False)[0])

    def gap(b: float):
        if b <= low:
            return -math.inf
        if b >= high:
            return math.inf
        return (yield b, False)[0]

    lo, hi = -1.0, 1.0
    while (yield from gap(lo)) > 0:
        lo *= 2.0
    while (yield from gap(hi)) < 0:
        hi *= 2.0
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        g = yield from gap(mid)
        if abs(g) < _SHIFT_TOL:
            return mid
        if g < 0:
            lo = mid
        else:
            hi = mid
    g = (yield mid, False)[0]
    raise ValueError(f"no shift calibrates the scores to prop {prop}: gap {g:.3g} remains")


def _solve_shifts(scores: np.ndarray, prop: float) -> np.ndarray:
    """Each row's shift b with mean(logistic(row + b)) = prop, for a (k, n) block.

    The mean masking probability is strictly increasing in b, so plain
    bisection on an expanding bracket converges; a row stops once its
    calibration error is below 1e-8 (well inside the 1e-6 contract).
    Scores so large that float spacing leaves no shift within 1e-8 of
    prop raise ValueError. A certified bracket lets the bisection skip
    every evaluation whose outcome is known (_shift_search).

    Every row runs its own _shift_search. A round evaluates the shift
    each unfinished row asks for in one _logistic pass over those rows,
    so a block takes as many passes as its slowest row; np.add.reduce
    along axis 1 gives each row the bits of its own sum, so a row's shift
    is the one it gets as the block of one. A row whose search fails
    fails the block with its own message.
    """
    if scores.shape[1] == 0 or not np.isfinite(scores).all():
        raise ValueError("scores must be non-empty and finite")
    if not 0.0 < prop < 1.0:
        raise ValueError(f"prop must lie strictly in (0,1), got {prop}")
    n = scores.shape[1]
    shifts = np.empty(scores.shape[0])
    searches = [_shift_search(prop) for _ in range(scores.shape[0])]
    asks = {r: next(search) for r, search in enumerate(searches)}
    while asks:
        rows = list(asks)
        b = np.array([asks[r][0] for r in rows])
        p = _logistic((scores[rows] if len(rows) < len(shifts) else scores) + b[:, None])
        gaps = (np.add.reduce(p, axis=1) / n - prop).tolist()
        wanted = [i for i, r in enumerate(rows) if asks[r][1]]
        q = p[wanted]
        slopes = dict(zip(wanted, (np.add.reduce(q * (1.0 - q), axis=1) / n).tolist()))
        for i, (r, g) in enumerate(zip(rows, gaps)):
            try:
                asks[r] = searches[r].send((g, slopes.get(i)))
            except StopIteration as done:
                shifts[r] = done.value
                del asks[r]
    return shifts


def _mask_rows(x1: np.ndarray, mechanism: Mechanism, u: np.ndarray) -> np.ndarray:
    """Read-only masks of a (k, n) block of x1 rows from their (k, n) uniform draws.

    Each row is masked on its own, as ampute describes; the arithmetic
    runs once on the block. Row sums are np.add.reduce along axis 1,
    which on a C-contiguous block sums each row exactly as it sums the
    row alone, so no row's mask depends on the others.
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
    return mask


def _incomplete_block(
    x1: np.ndarray, x2: np.ndarray, y: np.ndarray, mask: np.ndarray
) -> IncompleteBlock:
    """The IncompleteBlock of read-only (k, n) blocks cut from a validated Dataset.

    y gets its holes once for the whole block, and nothing is checked
    again: x1, x2 and y are finite already and the holes are exactly
    where mask is true.
    """
    holes = y.copy()
    holes.reshape(-1)[np.flatnonzero(mask)] = np.nan
    holes.flags.writeable = False
    return _trusted(IncompleteBlock, x1=x1, x2=x2, y=holes, mask=mask, truth_y=y)


def ampute(data: Dataset, mechanism: Mechanism, stream: RngStream) -> IncompleteBlock:
    """Mask y entries of data by mechanism, as the block of one dataset.

    MCAR compares one uniform draw per row against PROP. MAR compares it
    against logistic(score + b): the score is standardized x1, and b is
    calibrated by _solve_shifts so the expected proportion equals PROP.
    Rows with high x1 are censored more. This is the one-row block of
    _mask_rows; _solve_shifts draws nothing, so drawing first moves no bit.
    """
    u = stream.generator.random(len(data))
    x1, x2, y = (col[None, :] for col in (data.x1, data.x2, data.y))
    return _incomplete_block(x1, x2, y, _mask_rows(x1, mechanism, u[None, :]))
