"""Duplicated-row CART growing: the older reference for fit_forest.

This grower builds each tree on its bootstrap resample as drawn, one row
per draw, and scores a boundary by the children's summed squared error,
sums of y² included. ``forest.fit_forest`` grows on the bootstrap's
distinct rows weighted by their draw counts and leaves out the y² total,
which is the same at every boundary of a node. Both rules pick the same
boundary up to rounding, so on continuous data the tests expect the two
forests to agree tree for tree; ties in rounded data can tip an argmin
either way.
"""

import numpy as np

from imputebench.forest import MIN_NODE_SIZE


class TreeBuilder:
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

    def freeze(self) -> dict[str, np.ndarray]:
        return {
            "feature": np.array(self.feature, dtype=np.intp),
            "threshold": np.array(self.threshold, dtype=np.float64),
            "left": np.array(self.left, dtype=np.intp),
            "right": np.array(self.right, dtype=np.intp),
            "value": np.array(self.value, dtype=np.float64),
        }


def best_split_duplicated(xs: np.ndarray, ys: np.ndarray) -> float | None:
    """Threshold of one feature's best boundary, or None when none is legal.

    xs must be ascending. Scores every split point k (left = xs[:k+1])
    where the neighbours differ and both children keep MIN_NODE_SIZE
    rows, by the children's summed squared error; the first-minimum
    convention resolves equal scores to the smallest threshold.
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


def fit_tree_duplicated(x: np.ndarray, y: np.ndarray, stream) -> dict[str, np.ndarray]:
    """Grow one CART regression tree on the duplicated rows of a bootstrap.

    Stream use, in order: the bootstrap index draw, then one feature
    permutation per splittable node in depth-first, left-first order;
    the node splits on the permutation's first entry.
    """
    n, p = x.shape
    gen = stream.generator
    rows = gen.integers(0, n, size=n)
    xb, yb = x[rows], y[rows]
    order = [np.argsort(xb[:, f], kind="stable") for f in range(p)]

    tree = TreeBuilder()
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
        thr = best_split_duplicated(xb[sel, f], yb[sel])
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
