"""Dense donor search: the reference for imputers.impute_pmm.

``impute_pmm`` searches donors a block of missing rows at a time. This
reference builds the whole n_mis x n_obs distance matrix and partitions
it in one call; the tests expect the two to agree bit for bit, in the
values and in the stream state they leave.
"""

import numpy as np

from imputebench.imputers import PMM_DONORS
from imputebench.linmodel import bayes_param_draw, fit_ols, predict


def dense_pmm(x1, x2, y, mask, stream):
    keep = ~mask
    x1_obs, x2_obs, y_obs = x1[keep], x2[keep], y[keep]
    fit = fit_ols(x1_obs, x2_obs, y_obs)
    yhat_obs = predict(fit.coefficients, x1_obs, x2_obs)
    beta_star, _ = bayes_param_draw(fit, stream)
    yhat_mis = predict(beta_star, x1[mask], x2[mask])

    n_mis = yhat_mis.size
    dist = np.abs(yhat_obs[None, :] - yhat_mis[:, None])
    if PMM_DONORS < dist.shape[1]:
        pool = np.argpartition(dist, PMM_DONORS - 1, axis=1)[:, :PMM_DONORS]
    else:
        pool = np.broadcast_to(np.arange(dist.shape[1]), dist.shape).copy()
    pick = stream.generator.integers(0, pool.shape[1], size=n_mis)
    return y_obs[pool[np.arange(n_mis), pick]]
