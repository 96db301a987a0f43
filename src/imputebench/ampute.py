"""Inject missingness into the outcome column.

Two mechanisms: MCAR masks rows independently at a fixed rate, and a
right-censoring MAR variant masks with probability increasing in a
weighted predictor score, calibrated by a logistic shift so the expected
masked proportion hits the target. Only y is ever masked; the original
outcome is carried along for evaluation but kept out of reach of the
imputation path.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Dict

import numpy as np
from scipy.special import expit

from .datagen import Dataset
from .stochastics import RngStream, draw_uniform

if TYPE_CHECKING:
    from .imputers import ImputationMethod

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
    """Mechanism, target proportion, and MAR score weights over (x1, x2).

    y has no weight: it is the column being masked, so its values cannot
    drive the mechanism.
    """

    mechanism: Mechanism
    prop: float = 0.5
    weights: tuple[float, float] = (1.0, 0.0)

    def __post_init__(self):
        if not 0.0 < self.prop < 1.0:
            raise ValueError(f"prop must lie strictly in (0,1), got {self.prop}")
        if len(self.weights) != 2:
            raise ValueError(f"weights must be a pair over (x1,x2), got {self.weights}")
        if self.mechanism is Mechanism.MAR_RIGHT and not any(self.weights):
            raise ValueError("MAR requires a nonzero weight on x1 or x2")


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

    MCAR compares one uniform draw per row against prop. MAR compares it
    against logistic(score + b): the score is the standardized weighted
    sum of (x1, x2), and b is calibrated by solve_shift so the expected
    proportion equals prop. Rows with high scores are censored more.
    """
    n = len(data)
    if spec.mechanism is Mechanism.MCAR:
        probs = np.full(n, spec.prop)
    else:
        w1, w2 = spec.weights
        raw = w1 * data.x1 + w2 * data.x2
        sd = float(np.std(raw))
        if sd == 0.0 or not np.isfinite(sd):
            raise ValueError("amputation scores are constant; weights select no signal")
        score = (raw - np.mean(raw)) / sd
        shift = solve_shift(score, spec.prop)
        probs = expit(score + shift)
    mask = draw_uniform(stream, n) < probs
    y = data.y.copy()
    y[mask] = np.nan
    return IncompleteDataset(x1=data.x1, x2=data.x2, y=y, mask=mask, truth_y=data.y)
