"""Inject missingness into the outcome column.

Two mechanisms: MCAR masks rows independently at the fixed rate PROP,
and a right-censoring MAR variant masks with probability increasing in
x1, calibrated by a logistic shift so the expected masked proportion is
PROP. Only y is ever masked; the original outcome is carried along for
evaluation but kept out of reach of the imputation path.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Dict

import numpy as np
from scipy.special import expit

from .datagen import Dataset
from .stochastics import RngStream

if TYPE_CHECKING:
    from .imputers import ImputationMethod

# expected share of masked y entries under either mechanism
PROP = 0.5
_SHIFT_TOL = 1e-8
_MAX_BISECT = 200


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
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"column {name} contains non-finite values")
        if not np.all(np.isnan(self.y[self.mask])):
            raise ValueError("masked y entries must be NaN")
        if not np.all(np.isfinite(self.y[~self.mask])):
            raise ValueError("unmasked y entries must be finite")

    def __len__(self) -> int:
        return self.mask.size

    @property
    def n_observed(self) -> int:
        return int(np.count_nonzero(~self.mask))

    @property
    def n_missing(self) -> int:
        return int(np.count_nonzero(self.mask))

    def observed_rows(self) -> Dict[str, np.ndarray]:
        """Columns restricted to rows with observed y."""
        keep = ~self.mask
        return {"x1": self.x1[keep], "x2": self.x2[keep], "y": self.y[keep]}

    def missing_rows(self) -> Dict[str, np.ndarray]:
        """Predictor columns restricted to rows with missing y."""
        return {"x1": self.x1[self.mask], "x2": self.x2[self.mask]}


@dataclass(frozen=True)
class CompletedDataset:
    """An imputed dataset: filled columns plus the record of what was filled.

    Invariant: y at unmasked positions is bit-identical to the observed
    values. ``converged`` is False only when an iterative imputer ran out
    of iterations and returned its best iterate.
    """

    data: Dataset
    imputed_mask: np.ndarray
    method: "ImputationMethod | None"
    converged: bool = True

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
        converged: bool = True,
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
        y = inc.y.copy()
        y[inc.mask] = values
        data = Dataset(inc.x1, inc.x2, y)
        return cls(data=data, imputed_mask=inc.mask, method=method, converged=converged)


def solve_shift(scores, prop: float) -> float:
    """Shift b with mean(logistic(scores + b)) = prop, by bisection.

    The mean masking probability is strictly increasing in b, so plain
    bisection on an expanding bracket converges; iteration stops once the
    calibration error is below 1e-8 (well inside the 1e-6 contract).
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.size == 0 or not np.all(np.isfinite(s)):
        raise ValueError("scores must be non-empty and finite")
    if not 0.0 < prop < 1.0:
        raise ValueError(f"prop must lie strictly in (0,1), got {prop}")

    def gap(b: float) -> float:
        return float(np.mean(expit(s + b))) - prop

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
    return 0.5 * (lo + hi)


def ampute(data: Dataset, spec: MissingnessSpec, stream: RngStream) -> IncompleteDataset:
    """Mask y entries of data according to spec.

    MCAR compares one uniform draw per row against PROP. MAR compares it
    against logistic(score + b): the score is standardized x1, and b is
    calibrated by solve_shift so the expected proportion equals PROP.
    Rows with high x1 are censored more.
    """
    n = len(data)
    if spec.mechanism is Mechanism.MCAR:
        probs = np.full(n, PROP)
    else:
        sd = float(np.std(data.x1))
        if sd == 0.0 or not np.isfinite(sd):
            raise ValueError("amputation scores are constant: x1 does not vary")
        score = (data.x1 - np.mean(data.x1)) / sd
        shift = solve_shift(score, PROP)
        probs = expit(score + shift)
    mask = stream.generator.random(n) < probs
    y = data.y.copy()
    y[mask] = np.nan
    return IncompleteDataset(x1=data.x1, x2=data.x2, y=y, mask=mask, truth_y=data.y)
