"""Rank-constrained ALS matrix completion: the reference for softimpute.

``imputers.impute_softimpute`` computes the fixed point of this
iteration directly (rank 2 of (x1, x2, y), no ridge, holes only in y);
the tests run the iteration and check that it reaches the same plane.
"""

import numpy as np

from imputebench.stochastics import RngStream


def als_matrix_complete(
    matrix: np.ndarray,
    rank_max: int,
    ridge: float,
    max_iter: int,
    tol: float,
    stream: RngStream,
) -> tuple[np.ndarray, list[float], bool]:
    """Complete a matrix with NaN holes by rank-constrained ALS.

    Factorizes as A @ B.T with rank <= rank_max, minimizing the squared
    error over observed entries plus ridge * (|A|^2 + |B|^2). Each half
    step is a ridge regression against the matrix refilled with the
    current predictions at the holes; refilling makes the step an exact
    majorize-minimize move on the observed-entry objective, so the
    objective never increases, and it pins hole predictions to the
    global low-rank structure instead of letting per-row systems run
    free. Returns the reconstruction, the objective value at start and
    after every iteration, and a convergence flag.
    """
    m = np.asarray(matrix, dtype=np.float64)
    observed = np.isfinite(m)
    n_rows, n_cols = m.shape
    rank = min(rank_max, n_rows, n_cols)
    holes = ~observed

    a = stream.generator.standard_normal(n_rows * rank).reshape(n_rows, rank)
    b = np.zeros((n_cols, rank))
    filled = np.where(observed, m, 0.0)  # holes start at the b = 0 prediction

    def objective() -> float:
        resid = (m - a @ b.T)[observed]
        penalty = ridge * (float(np.sum(a * a)) + float(np.sum(b * b)))
        return float(resid @ resid) + penalty

    def refill() -> None:
        recon = a @ b.T
        filled[holes] = recon[holes]

    objectives = [objective()]
    floor = 1e-12 * objectives[0] + np.finfo(float).tiny
    converged = False
    for _ in range(max_iter):
        b = _gram_solve(a.T @ a, a.T @ filled, ridge).T
        refill()
        a = _gram_solve(b.T @ b, b.T @ filled.T, ridge).T
        refill()
        objectives.append(objective())
        prev, cur = objectives[-2], objectives[-1]
        if abs(prev - cur) <= tol * max(prev, np.finfo(float).tiny) or cur <= floor:
            converged = True
            break
    return a @ b.T, objectives, converged


def _gram_solve(gram: np.ndarray, rhs: np.ndarray, ridge: float) -> np.ndarray:
    """Solve (gram + ridge I) w = rhs column-wise; pseudoinverse fallback."""
    if ridge > 0:
        return np.linalg.solve(gram + ridge * np.eye(gram.shape[0]), rhs)
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(gram) @ rhs
