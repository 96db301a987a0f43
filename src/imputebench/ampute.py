"""Inject missingness into the outcome column.

Two mechanisms: MCAR masks rows independently at the fixed rate PROP,
and a right-censoring MAR variant masks with probability increasing in
x1, calibrated by a logistic shift so the expected masked proportion is
PROP. Only y is ever masked; the original outcome is carried along for
evaluation but kept out of reach of the imputation path.
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
class MissingnessSpec:
    """The missingness mechanism of a grid cell."""

    mechanism: Mechanism


@dataclass(frozen=True)
class IncompleteDataset:
    """A dataset whose y column has holes.

    y carries NaN at masked positions; truth_y retains the pre-masking
    values and exists for evaluation only. No imputer may read it.
    """

    x1: np.ndarray
    x2: np.ndarray
    y: np.ndarray
    mask: np.ndarray
    truth_y: np.ndarray

    def __post_init__(self):
        mask = np.array(self.mask, dtype=bool)
        mask.flags.writeable = False
        object.__setattr__(self, "mask", mask)
        for name in ("x1", "x2", "y", "truth_y"):
            col = np.array(getattr(self, name), dtype=np.float64)
            col.flags.writeable = False
            object.__setattr__(self, name, col)
        n = self.mask.size
        if not all(getattr(self, c).size == n for c in ("x1", "x2", "y", "truth_y")):
            raise ValueError("all columns must share the mask's length")
        for name in ("x1", "x2", "truth_y"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"column {name} contains non-finite values")
        if not np.isnan(self.y[self.mask]).all():
            raise ValueError("masked y entries must be NaN")
        if not np.isfinite(self.y[~self.mask]).all():
            raise ValueError("unmasked y entries must be finite")

    def __len__(self) -> int:
        return self.mask.size

    @property
    def n_observed(self) -> int:
        return int(np.count_nonzero(~self.mask))

    @property
    def n_missing(self) -> int:
        return int(np.count_nonzero(self.mask))


@dataclass(frozen=True)
class CompletedDataset:
    """An imputed dataset: filled columns plus the record of what was filled.

    Invariant: y at unmasked positions is bit-identical to the observed
    values.
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

    @classmethod
    def from_imputation(
        cls,
        inc: IncompleteDataset,
        imputed_values: np.ndarray,
        method: "ImputationMethod | None",
    ) -> "CompletedDataset":
        """Fill inc's masked entries with imputed_values (in mask order).

        Observed entries are carried over from inc.y unchanged, which
        makes the bit-identity invariant true by construction.
        """
        values = np.asarray(imputed_values, dtype=np.float64)
        if values.shape != (inc.n_missing,):
            raise ValueError(
                f"expected {inc.n_missing} imputed values, got shape {values.shape}"
            )
        if not np.isfinite(values).all():
            raise ValueError("column y contains non-finite values")
        # inc's x1, x2 and observed y are validated and read-only: only y changes
        y = inc.y.copy()
        y[inc.mask] = values
        y.flags.writeable = False
        data = _trusted(Dataset, x1=inc.x1, x2=inc.x2, y=y)
        return _trusted(cls, data=data, imputed_mask=inc.mask, method=method)


def _logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)); below x = -709 exp overflows to inf and this is 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _certified_bracket(s: np.ndarray, prop: float) -> tuple[float, float]:
    """Shifts (low, high) whose gap is below -2 tol and above 2 tol; -inf, inf if none is found.

    Newton steps on the gap from b = 0, with slope mean(p(1 - p)) from
    the same pass, then one probe 4 tol / slope to either side of the
    last step. Every probe whose gap is past -2 tol or 2 tol (tol is
    _SHIFT_TOL) settles that side; a probe at +-inf settles nothing.
    """
    low, high = -math.inf, math.inf

    def probe(b: float) -> tuple[float, float]:
        nonlocal low, high
        p = _logistic(s + b)
        g = float(np.add.reduce(p) / p.size) - prop
        if g < -2.0 * _SHIFT_TOL:
            low = max(low, b)
        elif g > 2.0 * _SHIFT_TOL:
            high = min(high, b)
        return g, float(np.add.reduce(p * (1.0 - p)) / p.size)

    b = 0.0
    for _ in range(_NEWTON_STEPS):
        g, slope = probe(b)
        if not slope > 0.0:
            return low, high
        if abs(g) < _SHIFT_TOL:
            break
        b -= g / slope
    step = 4.0 * _SHIFT_TOL / slope
    probe(b - step)
    probe(b + step)
    return low, high


def solve_shift(scores, prop: float) -> float:
    """Shift b with mean(logistic(scores + b)) = prop, by bisection.

    The mean masking probability is strictly increasing in b, so plain
    bisection on an expanding bracket converges; iteration stops once the
    calibration error is below 1e-8 (well inside the 1e-6 contract).
    Scores so large that float spacing leaves no shift within 1e-8 of prop
    raise ValueError.

    The bisection skips every evaluation whose outcome is already known:
    at or below the `low` of _certified_bracket the gap is negative and
    not converged, at or above `high` positive and not converged. Float
    add, divide and mean are monotone under rounding and np.exp errs by
    an ulp or two, so the evaluated gap there is past 2 tol - 1e-15 on
    the same side, and the midpoints, the stop and the returned shift
    are bit-identical to evaluating every step.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.size == 0 or not np.isfinite(s).all():
        raise ValueError("scores must be non-empty and finite")
    if not 0.0 < prop < 1.0:
        raise ValueError(f"prop must lie strictly in (0,1), got {prop}")

    def evaluated_gap(b: float) -> float:
        return float(np.add.reduce(_logistic(s + b)) / s.size) - prop

    low, high = _certified_bracket(s, prop)

    def gap(b: float) -> float:
        if b <= low:
            return -math.inf
        if b >= high:
            return math.inf
        return evaluated_gap(b)

    lo, hi = -1.0, 1.0
    while gap(lo) > 0:
        lo *= 2.0
    while gap(hi) < 0:
        hi *= 2.0
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        g = gap(mid)
        if abs(g) < _SHIFT_TOL:
            return mid
        if g < 0:
            lo = mid
        else:
            hi = mid
    raise ValueError(
        f"no shift calibrates the scores to prop {prop}: gap {evaluated_gap(mid):.3g} remains"
    )


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
        shift = np.array([solve_shift(row, PROP) for row in score])
        probs = _logistic(score + shift[:, None])
    mask = u < probs
    mask.flags.writeable = False
    return mask


def _incomplete_rows(
    x1: np.ndarray, x2: np.ndarray, y: np.ndarray, mask: np.ndarray
) -> list[IncompleteDataset]:
    """One IncompleteDataset per row of read-only (k, n) blocks cut from a validated Dataset.

    y gets its holes once for the whole block; each dataset's columns are
    row views of the blocks, not copies, and pass no check again: x1, x2
    and y are finite already and y is NaN exactly where mask is true.
    """
    holes = y.copy()
    holes[mask] = np.nan
    holes.flags.writeable = False
    return [
        _trusted(IncompleteDataset, x1=x1[r], x2=x2[r], y=holes[r], mask=mask[r], truth_y=y[r])
        for r in range(y.shape[0])
    ]


def ampute(data: Dataset, spec: MissingnessSpec, stream: RngStream) -> IncompleteDataset:
    """Mask y entries of data according to spec.

    MCAR compares one uniform draw per row against PROP. MAR compares it
    against logistic(score + b): the score is standardized x1, and b is
    calibrated by solve_shift so the expected proportion equals PROP.
    Rows with high x1 are censored more. This is the one-row block of
    _mask_rows; solve_shift draws nothing, so drawing first moves no bit.
    """
    u = stream.generator.random(len(data))
    x1, x2, y = (col[None, :] for col in (data.x1, data.x2, data.y))
    (inc,) = _incomplete_rows(x1, x2, y, _mask_rows(x1, spec.mechanism, u[None, :]))
    return inc
