"""Synthetic population generator with closed-form target parameters.

Populations follow a linear-Gaussian recipe: two standardized predictors
with correlation PREDICTOR_CORR, and an outcome built as their weighted
sum (weights split by VAR_PROP) plus independent noise sized so the
generator explains exactly ``r_squared`` of a standardized signal budget.
Because the construction is fully analytic, every downstream quantity of
interest has a closed form, which doubles as the test oracle for the
simulation harness. The regression fields of that truth and of every
estimate come from one helper, ``moment_params``, applied to a 3x3
covariance of (x1, x2, y): the population's here, a sample's in
``downstream.estimate_params``.
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
# 1 - r^2 between two regressors below this is treated as collinearity
_COLLINEAR_FLOOR = 1e-12


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
            if not np.isfinite(col).all():
                raise ValueError(f"column {name} contains non-finite values")
            col.flags.writeable = False
            object.__setattr__(self, name, col)
        if not (self.x1.size == self.x2.size == self.y.size):
            raise ValueError("columns x1, x2, y must have equal length")

    def __len__(self) -> int:
        return self.x1.size


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
        _check_params(self.as_array()[None, :])

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in _PARAM_FIELDS])

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return _PARAM_FIELDS

    @classmethod
    def from_array(cls, values) -> "ParamSet":
        return cls(*(float(v) for v in values))


_PARAM_FIELDS = tuple(f.name for f in fields(ParamSet))
_R2_Y, _R2_X, _P90, _MSE_FULL, _MSE_MISSING = map(
    _PARAM_FIELDS.index, ("r2_y", "r2_x", "p90", "mse_full", "mse_missing")
)


def _check_params(rows: np.ndarray) -> None:
    """ParamSet's checks on each row of a (k, 10) array of field values.

    Raises the ValueError ParamSet raises for the first row that fails,
    with its first failing check's message.
    """
    r2_y, r2_x, p90 = rows[:, _R2_Y], rows[:, _R2_X], rows[:, _P90]
    bad_r2 = ~((-1e-9 <= r2_y) & (r2_y <= 1 + 1e-9) & (-1e-9 <= r2_x) & (r2_x <= 1 + 1e-9))
    bad_p90 = ~((0.0 <= p90) & (p90 <= 100.0))
    bad_mse = (rows[:, _MSE_FULL] < 0) | (rows[:, _MSE_MISSING] < 0)
    bad = bad_r2 | bad_p90 | bad_mse
    if not bad.any():
        return
    r = int(bad.argmax())
    if bad_r2[r]:
        raise ValueError(f"r2 fields must lie in [0,1], got {float(r2_y[r])}, {float(r2_x[r])}")
    if bad_p90[r]:
        raise ValueError(f"p90 must be a percentage, got {float(p90[r])}")
    raise ValueError("mse fields must be non-negative")


def _trusted(cls, **values):
    """An instance of the frozen dataclass cls, skipping its __post_init__.

    No copy and no check: every value must already be what __post_init__
    would make of it (arrays read-only, float64 or bool, finite where the
    class requires it), because it was cut from data that passed it.
    """
    obj = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(obj, name, value)
    return obj


def _row_slices(counts: np.ndarray) -> list[slice]:
    """Where each row lies in a row-major concatenation of rows counts[i] long."""
    ends = np.cumsum(counts).tolist()
    return [slice(a, b) for a, b in zip([0] + ends[:-1], ends)]


def _row_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """np.add.reduce of each row's slice of a row-major concatenation.

    values holds k rows' values one after another along its last axis,
    counts[i] of them for row i; the result has one sum per row in its
    last axis. Each is a pairwise sum over that row's contiguous values
    alone, the sum of the row by itself, which np.add.reduceat is not.
    """
    values = np.ascontiguousarray(values)  # a strided last axis would sum in another order
    sums = np.empty(values.shape[:-1] + (len(counts),))
    for i, row in enumerate(_row_slices(counts)):
        sums[..., i] = np.add.reduce(values[..., row], axis=-1)
    return sums


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


def moment_params(cov) -> Dict[str, np.ndarray]:
    """The six regression fields of a table row from the covariance of (x1, x2, y).

    cov is one 3x3 covariance or a stack of them, shape (..., 3, 3); each
    field has the stack's shape (a numpy scalar for one matrix). sigma and
    rho (of y with x1) are read off the matrix. gamma and r2_y come from
    y ~ x1 + x2, delta and r2_x from x1 ~ y + x2. Each is OLS with an
    intercept, which on centred moments is the 2x2 system S b = c (S the
    predictors' covariance, c their covariance with the response);
    R^2 = b'c / var(response), clipped to [0, 1] as min(max(R^2, 0.0), 1.0)
    clips a Python float, so NaN and -0.0 pass unchanged. ground_truth
    passes the population covariance, estimate_params the sample ones.

    Raises ValueError naming the regression when 1 - r^2 of its two
    predictors is below _COLLINEAR_FLOOR in any matrix of the stack.
    """
    c = np.asarray(cov, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats overflow
        gamma, r2_y = _moment_regression(c, 2, 0, 1, "y ~ x1 + x2")
        delta, r2_x = _moment_regression(c, 0, 2, 1, "x1 ~ y + x2")
        var_x1, var_y = c[..., 0, 0], c[..., 2, 2]
        return {
            "sigma": np.sqrt(var_y),
            "rho": c[..., 0, 2] / np.sqrt(var_x1 * var_y),
            "gamma": gamma,
            "r2_y": r2_y,
            "delta": delta,
            "r2_x": r2_x,
        }


def _moment_regression(c, response: int, first: int, second: int, name: str):
    """Slope on ``first`` and R^2 of response ~ first + second, by Cramer's rule."""
    s11, s12, s22 = c[..., first, first], c[..., first, second], c[..., second, second]
    c1, c2 = c[..., first, response], c[..., second, response]
    det = s11 * s22 - s12 * s12
    if (det <= _COLLINEAR_FLOOR * s11 * s22).any():
        raise ValueError(f"regression {name}: the predictors are collinear")
    b1 = (s22 * c1 - s12 * c2) / det
    b2 = (s11 * c2 - s12 * c1) / det
    r2 = (b1 * c1 + b2 * c2) / c[..., response, response]
    r2 = np.where(r2 < 0.0, 0.0, r2)  # max(r2, 0.0) keeps NaN and -0.0
    return b1, np.where(r2 > 1.0, 1.0, r2)[()]


def ground_truth(spec: PopulationSpec) -> ParamSet:
    """Closed-form population values of every reported parameter.

    The generator fixes the population covariance of (x1, x2, y): unit
    predictor variances with correlation rho, cov(x1, y) = b1 + rho b2,
    cov(x2, y) = b2 + rho b1, and var(y) = b1 cov(x1, y) + b2 cov(x2, y)
    + (1 - r^2). moment_params turns it into sigma, rho, gamma (= b1),
    r2_y, delta and r2_x by the algebra estimate_params applies to a
    sample. mu = 0, P90 = 10 by construction and both MSEs are 0.
    """
    beta1, beta2, noise_sd = coefficients(spec)
    rho = PREDICTOR_CORR
    cov_x1_y = beta1 + rho * beta2
    cov_x2_y = beta2 + rho * beta1
    var_y = beta1 * cov_x1_y + beta2 * cov_x2_y + noise_sd * noise_sd
    cov = [[1.0, rho, cov_x1_y], [rho, 1.0, cov_x2_y], [cov_x1_y, cov_x2_y, var_y]]
    fields = {name: float(v) for name, v in moment_params(cov).items()}
    return ParamSet(mu=0.0, p90=10.0, mse_full=0.0, mse_missing=0.0, **fields)


def _sample_rows(pop: Dataset, n: int, stream: RngStream) -> np.ndarray:
    """Indices of n population rows drawn without replacement from stream."""
    if n > len(pop):
        raise ValueError(f"sample size {n} exceeds population size {len(pop)}")
    return stream.generator.choice(len(pop), size=n, replace=False)


def draw_sample(pop: Dataset, n: int, stream: RngStream) -> Dataset:
    """Sample n rows without replacement from the population."""
    idx = _sample_rows(pop, n, stream)
    return Dataset(pop.x1[idx], pop.x2[idx], pop.y[idx])
