"""Shared test plumbing.

Holds the acceptance-summary hook (one PASS/FAIL line per criterion at
the end of a run), an independent reimplementation of the downstream
estimates used as a dual-route oracle, two helpers that build the
block of one dataset and its estimate_params input, and a tracemalloc
helper that measures a call's peak allocation. The oracle shares no
code with the library: quantile interpolation is hand-rolled and the
regressions go through lstsq instead of the normal equations.
"""

import math
import tracemalloc

import numpy as np
import pytest

from imputebench.ampute import CompletedDataset, IncompleteBlock
from imputebench.datagen import Dataset
from imputebench.stochastics import SeedSpec, make_stream

_ACCEPTANCE_RESULTS = []
# bytes a traced call may allocate beyond its whole columns (numpy and
# generator objects); a column of 10^5 rows is 800,000 bytes
PEAK_SLACK = 64 * 1024


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    desc = marker.args[0] if marker.args else item.name
    if report.when == "call":
        _ACCEPTANCE_RESULTS.append((desc, report.outcome == "passed"))
    elif report.when == "setup" and report.outcome != "passed":
        _ACCEPTANCE_RESULTS.append((desc, False))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for desc, passed in _ACCEPTANCE_RESULTS:
        terminalreporter.write_line(f"{'PASS' if passed else 'FAIL'}  {desc}")


def naive_quantile(values, q):
    srt = np.sort(np.asarray(values, dtype=np.float64))
    h = (srt.size - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, srt.size - 1)
    return float(srt[lo] + (h - lo) * (srt[hi] - srt[lo]))


def _naive_slope_r2(design_cols, response):
    """lstsq fit; returns (coefficient of the first non-intercept column, R^2)."""
    x = np.column_stack([np.ones(response.size)] + list(design_cols))
    coef, _, _, _ = np.linalg.lstsq(x, response, rcond=None)
    resid = response - x @ coef
    sst = float(np.sum((response - response.mean()) ** 2))
    return float(coef[1]), 1.0 - float(resid @ resid) / sst


def naive_reference_params(completed, truth):
    """Direct-formula counterpart of the library's downstream estimates."""
    x1 = completed.data.x1
    x2 = completed.data.x2
    ydot = completed.data.y
    ty = truth.y
    n = ydot.size

    mu = float(np.sum(ydot) / n)
    sigma = math.sqrt(float(np.sum((ydot - mu) ** 2)) / (n - 1))
    p90 = 100.0 * float(np.mean(ydot > naive_quantile(ty, 0.9)))
    dx = x1 - x1.mean()
    dy = ydot - mu
    rho = float(dx @ dy) / math.sqrt(float(dx @ dx) * float(dy @ dy))
    gamma, r2_y = _naive_slope_r2((x1, x2), ydot)
    delta, r2_x = _naive_slope_r2((ydot, x2), x1)

    sq = (ty - ydot) ** 2
    mask = completed.imputed_mask
    mse_full = float(np.mean(sq))
    mse_missing = float(np.mean(sq[mask])) if mask.any() else 0.0
    return {
        "mu": mu,
        "sigma": sigma,
        "p90": p90,
        "rho": rho,
        "gamma": gamma,
        "r2_y": min(max(r2_y, 0.0), 1.0),
        "r2_x": min(max(r2_x, 0.0), 1.0),
        "delta": delta,
        "mse_full": mse_full,
        "mse_missing": mse_missing,
    }


@pytest.fixture
def naive_params():
    return naive_reference_params


def block_of_one(x1, x2, y, mask, truth_y):
    """The IncompleteBlock of one dataset, from its 1-D columns."""
    return IncompleteBlock(*(np.asarray(col)[None, :] for col in (x1, x2, y, mask, truth_y)))


def completed_of(inc, y_block, method=None):
    """The CompletedDataset of the block of one ``inc`` and its completed y block."""
    return CompletedDataset(Dataset(inc.x1[0], inc.x2[0], y_block[0]), inc.mask[0], method)


def traced_peak(call):
    """Bytes that call() allocates at its peak above what was allocated before it.

    One generator draws first, so the allocations of numpy.random's
    lazy import are not counted.
    """
    make_stream(SeedSpec(0, 0)).generator.standard_normal(1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
