"""Synthetic population generator with closed-form target parameters.

Populations follow a linear-Gaussian recipe: two standardized predictors
with correlation PREDICTOR_CORR, and an outcome built as their weighted
sum (weights split by VAR_PROP) plus independent noise sized so the
generator explains exactly ``r_squared`` of a standardized signal budget.
Because the construction is fully analytic, every downstream quantity of
interest has a closed form, which doubles as the test oracle for the
simulation harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict

import numpy as np

from .stochastics import RngStream

# how the signal variance splits between x1 and x2
VAR_PROP = (0.8, 0.2)
# correlation between x1 and x2
PREDICTOR_CORR = 0.5


@dataclass(frozen=True)
class PopulationSpec:
    """Parameters of the data-generating process.

    Parameters
    ----------
    r_squared : float
        Proportion of outcome variance carried by the linear signal,
        strictly inside (0, 1).
    size : int
        Number of population rows.
    """

    r_squared: float = 0.8
    size: int = 1_000_000

    def __post_init__(self):
        if not 0.0 < self.r_squared < 1.0:
            raise ValueError(f"r_squared must lie strictly in (0,1), got {self.r_squared}")
        if self.size < 1:
            raise ValueError(f"size must be positive, got {self.size}")


@dataclass(frozen=True)
class Dataset:
    """Immutable column triple (x1, x2, y) of equal length.

    Columns are converted to float64, required to be finite, and frozen
    (read-only buffers), so a Dataset is safely shareable across tasks.
    """

    x1: np.ndarray
    x2: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        for name in ("x1", "x2", "y"):
            col = np.array(getattr(self, name), dtype=np.float64)
            if col.ndim != 1:
                raise ValueError(f"column {name} must be one-dimensional")
            if not np.all(np.isfinite(col)):
                raise ValueError(f"column {name} contains non-finite values")
            col.flags.writeable = False
            object.__setattr__(self, name, col)
        if not (self.x1.size == self.x2.size == self.y.size):
            raise ValueError("columns x1, x2, y must have equal length")

    def __len__(self) -> int:
        return self.x1.size

    @property
    def columns(self) -> Dict[str, np.ndarray]:
        return {"x1": self.x1, "x2": self.x2, "y": self.y}


@dataclass(frozen=True)
class ParamSet:
    """The nine reported parameters plus the per-missing-row error.

    p90 is a percentage in [0, 100]; mse_full averages squared imputation
    error over all rows, mse_missing over the masked rows only.
    """

    mu: float
    sigma: float
    p90: float
    rho: float
    gamma: float
    r2_y: float
    delta: float
    r2_x: float
    mse_full: float
    mse_missing: float

    def __post_init__(self):
        if not -1e-9 <= self.r2_y <= 1 + 1e-9 or not -1e-9 <= self.r2_x <= 1 + 1e-9:
            raise ValueError(f"r2 fields must lie in [0,1], got {self.r2_y}, {self.r2_x}")
        if not 0.0 <= self.p90 <= 100.0:
            raise ValueError(f"p90 must be a percentage, got {self.p90}")
        if self.mse_full < 0 or self.mse_missing < 0:
            raise ValueError("mse fields must be non-negative")

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, f.name) for f in fields(self)])

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in fields(cls))

    @classmethod
    def from_array(cls, values) -> "ParamSet":
        return cls(*(float(v) for v in values))


@dataclass(frozen=True)
class GroundTruth:
    """Analytic parameter values implied by a PopulationSpec."""

    params: ParamSet


def coefficients(spec: PopulationSpec) -> tuple[float, float, float]:
    """Generator constants (beta1, beta2, noise_sd).

    beta_k = sqrt(r_squared * VAR_PROP[k]) puts ``r_squared`` of a unit
    signal budget on the predictors; noise_sd = sqrt(1 - r_squared)
    supplies the remainder as irreducible error.
    """
    beta1 = math.sqrt(spec.r_squared * VAR_PROP[0])
    beta2 = math.sqrt(spec.r_squared * VAR_PROP[1])
    noise_sd = math.sqrt(1.0 - spec.r_squared)
    return beta1, beta2, noise_sd


def generate_population(spec: PopulationSpec, stream: RngStream) -> Dataset:
    """Generate a population of ``spec.size`` rows.

    (x1, x2) are bivariate standard normal with correlation
    PREDICTOR_CORR (via the 2x2 Cholesky factor); y is the linear
    signal plus Gaussian noise. Draw order is fixed: z1, z2, noise.
    """
    beta1, beta2, noise_sd = coefficients(spec)
    rho = PREDICTOR_CORR
    n = spec.size
    gen = stream.generator
    z1 = gen.standard_normal(n)
    z2 = gen.standard_normal(n)
    eps = gen.standard_normal(n)
    x1 = z1
    x2 = rho * z1 + math.sqrt(1.0 - rho * rho) * z2
    y = beta1 * x1 + beta2 * x2 + noise_sd * eps
    return Dataset(x1, x2, y)


def ground_truth(spec: PopulationSpec) -> GroundTruth:
    """Closed-form population values of every reported parameter.

    Let V = var(y) = b1^2 + b2^2 + 2 rho b1 b2 + (1 - r^2). Then

    * mu = 0 and sigma = sqrt(V);
    * rho(y, x1) = (b1 + rho b2) / sigma;
    * gamma = b1 (the generator's own slope) and
      r2_y = (V - (1 - r^2)) / V;
    * delta and r2_x solve the 2x2 normal equations of the reverse
      regression x1 ~ y + x2 on the population moment matrix;
    * P90 = 10 by construction and both MSEs are 0.
    """
    beta1, beta2, noise_sd = coefficients(spec)
    rho = PREDICTOR_CORR
    noise_var = noise_sd * noise_sd

    var_y = beta1**2 + beta2**2 + 2.0 * rho * beta1 * beta2 + noise_var
    sigma = math.sqrt(var_y)
    cov_y_x1 = beta1 + rho * beta2
    cov_y_x2 = beta2 + rho * beta1
    corr_y_x1 = cov_y_x1 / sigma
    r2_y = (var_y - noise_var) / var_y

    # reverse regression x1 ~ y + x2: solve the population normal equations
    gram = np.array([[var_y, cov_y_x2], [cov_y_x2, 1.0]])
    rhs = np.array([cov_y_x1, rho])
    delta, coef_x2 = np.linalg.solve(gram, rhs)
    r2_x = float(delta * cov_y_x1 + coef_x2 * rho)  # var(x1) = 1

    return GroundTruth(
        ParamSet(
            mu=0.0,
            sigma=sigma,
            p90=10.0,
            rho=corr_y_x1,
            gamma=beta1,
            r2_y=r2_y,
            delta=float(delta),
            r2_x=r2_x,
            mse_full=0.0,
            mse_missing=0.0,
        )
    )


def draw_sample(pop: Dataset, n: int, stream: RngStream) -> Dataset:
    """Sample n rows without replacement from the population."""
    if n > len(pop):
        raise ValueError(f"sample size {n} exceeds population size {len(pop)}")
    idx = stream.generator.choice(len(pop), size=n, replace=False)
    return Dataset(pop.x1[idx], pop.x2[idx], pop.y[idx])
