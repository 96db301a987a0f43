"""Bagged CART regression trees and a forest imputer.

The split rules are fixed to the missForest settings at p = 2 (Stekhoven
and Buehlmann 2012): every tree grows on a bootstrap resample, each split
scans one randomly drawn feature, and leaves keep at least MIN_NODE_SIZE
rows. Every boundary between distinct sorted values of the drawn feature
is scored by the children's summed squared error, and ties break toward
the smallest threshold, so a fit is a pure function of (data, stream).
The imputer fits one forest and predicts the holes: only y is
incomplete, so the fit data never changes and a missForest-style refit
loop would have nothing to feed back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .ampute import CompletedDataset, IncompleteDataset
from .stochastics import RngStream

MIN_NODE_SIZE = 5


@dataclass(frozen=True)
class ForestParams:
    """Forest size; the split rules are the module's fixed settings."""

    n_trees: int = 100

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be at least 1, got {self.n_trees}")


@dataclass(frozen=True)
class RegressionTree:
    """Flat array encoding: feature[i] == -1 marks a leaf with mean value[i]."""

    feature: np.ndarray = field(repr=False)
    threshold: np.ndarray = field(repr=False)
    left: np.ndarray = field(repr=False)
    right: np.ndarray = field(repr=False)
    value: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("feature", "threshold", "left", "right", "value"):
            arr = getattr(self, name)
            arr.flags.writeable = False

    @property
    def n_nodes(self) -> int:
        return self.feature.size

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        node = np.zeros(x.shape[0], dtype=np.intp)
        while True:
            feat = self.feature[node]
            live = np.flatnonzero(feat >= 0)
            if live.size == 0:
                break
            cur = node[live]
            go_left = x[live, self.feature[cur]] <= self.threshold[cur]
            node[live] = np.where(go_left, self.left[cur], self.right[cur])
        return self.value[node]


class _TreeBuilder:
    """Accumulates node arrays while growing one tree depth-first."""

    def __init__(self):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []

    def add(self) -> int:
        self.feature.append(-1)
        self.threshold.append(np.nan)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(np.nan)
        return len(self.feature) - 1

    def freeze(self) -> RegressionTree:
        return RegressionTree(
            feature=np.array(self.feature, dtype=np.intp),
            threshold=np.array(self.threshold, dtype=np.float64),
            left=np.array(self.left, dtype=np.intp),
            right=np.array(self.right, dtype=np.intp),
            value=np.array(self.value, dtype=np.float64),
        )


def _best_split(xs: np.ndarray, ys: np.ndarray) -> float | None:
    """Threshold of one feature's best boundary, or None when none is legal.

    xs must be ascending. Scores every split point k (left = xs[:k+1])
    where the neighbours differ and both children keep MIN_NODE_SIZE
    rows; the first-minimum convention resolves equal scores to the
    smallest threshold.
    """
    m = xs.size
    c1 = np.cumsum(ys)
    c2 = np.cumsum(ys * ys)
    t1, t2 = c1[-1], c2[-1]
    k = np.arange(m - 1)
    n_left = k + 1.0
    n_right = m - n_left
    valid = (xs[:-1] < xs[1:]) & (n_left >= MIN_NODE_SIZE) & (n_right >= MIN_NODE_SIZE)
    if not valid.any():
        return None
    sse_left = c2[:-1] - c1[:-1] ** 2 / n_left
    sse_right = (t2 - c2[:-1]) - (t1 - c1[:-1]) ** 2 / n_right
    score = np.where(valid, sse_left + sse_right, np.inf)
    best = int(np.argmin(score))
    lo, hi = xs[best], xs[best + 1]
    mid = 0.5 * (lo + hi)
    # midpoints of adjacent floats can round up to hi; the rule is x <= thr
    thr = mid if mid < hi else lo
    return float(thr)


def fit_tree(x: np.ndarray, y: np.ndarray, stream: RngStream) -> RegressionTree:
    """Grow one CART regression tree on a bootstrap resample of the rows.

    Stream use, in order: the bootstrap index draw, then one feature
    permutation per splittable node in depth-first, left-first order;
    the node splits on the permutation's first entry.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("x must be a non-empty rows-by-features matrix")
    if y.shape != (x.shape[0],):
        raise ValueError("y length must match the number of rows")
    n, p = x.shape
    gen = stream.generator
    rows = gen.integers(0, n, size=n)
    xb, yb = x[rows], y[rows]
    order = [np.argsort(xb[:, f], kind="stable") for f in range(p)]

    tree = _TreeBuilder()
    member_root = np.ones(n, dtype=bool)
    stack = [(tree.add(), member_root)]
    while stack:
        node_id, member = stack.pop()
        node_y = yb[member]
        tree.value[node_id] = float(node_y.mean())
        if node_y.size < 2 * MIN_NODE_SIZE or node_y.min() == node_y.max():
            continue
        f = int(gen.permutation(p)[0])
        sel = order[f][member[order[f]]]
        thr = _best_split(xb[sel, f], yb[sel])
        if thr is None:
            continue
        go_left = member & (xb[:, f] <= thr)
        left_id = tree.add()
        right_id = tree.add()
        tree.feature[node_id] = f
        tree.threshold[node_id] = thr
        tree.left[node_id] = left_id
        tree.right[node_id] = right_id
        stack.append((right_id, member & ~go_left))
        stack.append((left_id, go_left))
    return tree.freeze()


def fit_forest(
    x: np.ndarray, y: np.ndarray, params: ForestParams, stream: RngStream
) -> tuple[RegressionTree, ...]:
    """Fit params.n_trees trees, tree t on the child stream t."""
    return tuple(
        fit_tree(x, y, stream.child(t)) for t in range(params.n_trees)
    )


def predict_forest(trees: Sequence[RegressionTree], rows: np.ndarray) -> np.ndarray:
    """Per-row mean of the trees' predictions."""
    if len(trees) == 0:
        raise ValueError("trees must be non-empty")
    rows = np.asarray(rows, dtype=np.float64)
    total = np.zeros(rows.shape[0])
    for tree in trees:
        total += tree.predict(rows)
    return total / len(trees)


def impute_forest(inc: IncompleteDataset, method, stream: RngStream) -> CompletedDataset:
    """Forest imputation of the masked y entries: one fit, one prediction.

    ``method`` is the ``imputers.Forest`` method object. Its ``params``
    grow a forest of y on (x1, x2) over the observed rows, with ``stream``
    as the forest stream, and the forest predicts the missing rows.
    """
    if inc.n_observed < MIN_NODE_SIZE:
        raise ValueError(
            f"need at least MIN_NODE_SIZE={MIN_NODE_SIZE} observed rows, got {inc.n_observed}"
        )
    if inc.n_missing == 0:
        return CompletedDataset.from_imputation(inc, np.empty(0), method)

    obs = inc.observed_rows()
    x_obs = np.column_stack([obs["x1"], obs["x2"]])
    y_obs = obs["y"]
    mis = inc.missing_rows()
    x_mis = np.column_stack([mis["x1"], mis["x2"]])
    values = predict_forest(fit_forest(x_obs, y_obs, method.params, stream), x_mis)
    return CompletedDataset.from_imputation(inc, values, method)
