"""Bagged CART regression trees and a forest imputer.

The split rules are fixed to the missForest settings at p = 2 (Stekhoven
and Buehlmann 2012): every tree grows on a bootstrap resample, each split
scans one randomly drawn feature, and leaves keep at least MIN_NODE_SIZE
bootstrap rows. A tree grows on the distinct rows of its bootstrap, each
weighted by the number of times it was drawn, which is the same sample
(Breiman 1996). Every boundary between distinct sorted values of the drawn
feature is scored by -c1**2/n_left - (t1 - c1)**2/n_right, with c1 and
n_left the weighted sum of y and the weight left of it and t1 the node's
sum: the children's summed squared error less the node's sum of y**2,
which is the same at every boundary. Ties break toward the smallest
threshold, so a fit is a pure function of (data, stream).

All trees of a forest grow in lockstep. Each feature's x is sorted once,
stably, over the input rows, and a tree's order of that feature keeps the
rows it drew; every node owns one contiguous segment of both orders. Each
step pops the next node from every tree's depth-first, left-first stack
and scores the legal boundaries of all popped nodes in flat numpy passes.
A node's split is its first boundary whose score equals the node's minimum
(a segmented minimum, not a sort); the step cuts the drawn feature's
segment there and stable-partitions the other feature's segment into the
two children. Each tree therefore sees its nodes, draws and sums in the
same order as a weighted grower that visits one node at a time, and comes
out bit-identical to that grower's tree. The forest is one packed node
table with a row per tree.

The imputer fits one forest and predicts the holes: only y is
incomplete, so the fit data never changes and a missForest-style refit
loop would have nothing to feed back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .stochastics import RngStream

MIN_NODE_SIZE = 5

# About the most rows one numpy pass of fit or predict touches; a step's
# nodes, the fit's trees when it filters and sorts their orders, predict's
# trees, and pmm's missing rows in its donor search (imputers.impute_pmm)
# are split into passes of this size. A ci-scale fit grows 100 trees on ~320
# distinct rows each, and without the cap the first steps build temporaries
# for all ~32,000 rows at once: a table2 run's peak RSS was 1.9 MB (+3.7%)
# higher, against the benchmark's 5% bound.
PASS_ROWS = 4096


@dataclass(frozen=True)
class PackedForest:
    """Node table of a forest; row t of every array is tree t.

    Node 0 is the root, and a split node's children take the next two free
    ids in depth-first, left-first order, so its right child is left + 1.
    feature[t, i] == -1 marks a leaf whose value is the mean of its
    bootstrap rows; a split node sends rows with x[:, feature] <= threshold
    to left and the rest to left + 1, and its value is NaN. Slots past a
    tree's last node look like empty leaves. feature and left are int32.
    """

    feature: np.ndarray = field(repr=False)
    threshold: np.ndarray = field(repr=False)
    left: np.ndarray = field(repr=False)
    value: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("feature", "threshold", "left", "value"):
            getattr(self, name).flags.writeable = False

    @property
    def n_trees(self) -> int:
        return self.feature.shape[0]

    @property
    def n_nodes(self) -> np.ndarray:
        """Nodes per tree: the root and two children per split."""
        return 1 + 2 * np.count_nonzero(self.feature >= 0, axis=1)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Per-row mean of the trees' predictions, added in tree order.

        All trees of a chunk descend together, one level per iteration.
        """
        if self.n_trees == 0:
            raise ValueError("the forest has no trees")
        (n_rows, n_cols), (n_trees, width) = np.shape(x), self.feature.shape
        feature, threshold = self.feature.ravel(), self.threshold.ravel()
        # flat id of a node's left child; the right one is the next id, which
        # rows take when x <= thr is false (a NaN x too)
        left = (self.left + width * np.arange(n_trees)[:, None]).ravel()
        x = np.asarray(x, dtype=np.float64).ravel()
        total = np.zeros((1, n_rows))
        chunk = max(1, PASS_ROWS // max(1, n_rows))
        for first in range(0, n_trees, chunk):
            n_chunk = min(chunk, n_trees - first)
            # flat node of each (tree, row) entry, and its row's offset in x
            node = np.repeat(np.arange(first, first + n_chunk) * width, n_rows)
            walking = np.arange(node.size)
            x_at = np.tile(np.arange(n_rows) * n_cols, n_chunk)
            while walking.size:
                cur = node[walking]
                split = feature[cur] >= 0
                walking, cur, x_at = walking[split], cur[split], x_at[split]
                node[walking] = left[cur] + ~(x[x_at + feature[cur]] <= threshold[cur])
            leaves = self.value.ravel()[node].reshape(n_chunk, n_rows)
            # one sum down the tree axis adds the trees one after another
            total = np.add.reduce(np.concatenate([total, leaves]), axis=0, keepdims=True)
        return total[0] / self.n_trees


def _runs(size: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat layout of runs of the given lengths: each entry's run, its
    index within the run, and each run's first entry."""
    first = np.cumsum(size) - size
    run = np.repeat(np.arange(size.size), size)
    return run, np.arange(run.size) - first[run], first


def _tree_orders(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per feature and tree, the tree's distinct rows (w[t] > 0) sorted by
    (x, row): one stable argsort of each feature over the input rows,
    filtered to each tree's rows by a stable (radix) sort of w == 0, a
    block of trees at a time. Tree t's rows fill the first
    count_nonzero(w[t]) slots of its order."""
    orders = np.empty((x.shape[1], *w.shape), dtype=np.int32)
    unseen = w == 0
    n_trees, n = w.shape
    chunk = max(1, PASS_ROWS // n)
    for f, col in enumerate(x.T):
        by_x = np.argsort(col, kind="stable")
        for first in range(0, n_trees, chunk):
            trees = slice(first, first + chunk)
            orders[f, trees] = by_x[np.argsort(unseen[trees][:, by_x], axis=1, kind="stable")]
    return orders


def fit_forest(x: np.ndarray, y: np.ndarray, n_trees: int, stream: RngStream) -> PackedForest:
    """Fit n_trees trees, tree t on the child stream t.

    Stream contract of tree t on ``stream.child(t)``: first the bootstrap
    draw ``integers(0, n, size=n)``, then N = 2 * (n // MIN_NODE_SIZE) + 1
    feature bits ``integers(0, 2**32, size=N, dtype=np.uint32)``. The k-th
    splittable node (at least 2 * MIN_NODE_SIZE bootstrap entries and a
    non-constant y) in depth-first, left-first order takes bit k and splits
    on feature ``1 - (bit & 1)``. On these Philox streams that is exactly
    the first entry of one ``permutation(2)`` draw, so the trees equal those
    of a grower that draws a permutation at each splittable node. A tree has
    at most 2 * (n // MIN_NODE_SIZE) - 1 nodes, so N bits always suffice.
    The bit trick holds for two features only: x must be (x1, x2). x and y
    are finite.

    A tree grows on its bootstrap's distinct rows, each weighted by the
    number of times it was drawn; node sizes, and so the MIN_NODE_SIZE
    rules, count bootstrap entries. A leaf's value is the mean of its
    bootstrap entries in draw order.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("x must be a non-empty rows-by-features matrix")
    if x.shape[1] != 2:
        raise ValueError(f"x must have the two columns (x1, x2), got {x.shape[1]}")
    if y.shape != (x.shape[0],):
        raise ValueError("y length must match the number of rows")
    for name, values in (("x", x), ("y", y)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} holds a non-finite value")
    n = x.shape[0]
    width = 2 * (n // MIN_NODE_SIZE) + 1
    # each tree's draws and its bootstrap count of each row, at flat index
    # t * n + row; then per feature and tree the tree's distinct rows sorted
    # by (x, row), at flat index (f * n_trees + t) * n + j. Row ids, counts
    # and node bookkeeping are int32 to keep a fit's peak small.
    rows = np.empty((n_trees, n), dtype=np.int32)
    w = np.empty((n_trees, n), dtype=np.int32)
    split_on = np.empty((n_trees, width), dtype=np.int32)
    for t, tree_stream in enumerate(stream.children(range(n_trees))):
        gen = tree_stream.generator
        draw = gen.integers(0, n, size=n)
        rows[t], w[t] = draw, np.bincount(draw, minlength=n)
        split_on[t] = 1 - (gen.integers(0, 2**32, size=width, dtype=np.uint32) & 1)
    order = _tree_orders(x, w).ravel()
    xt = x.T.ravel()
    go_left = np.zeros(n_trees * n, dtype=bool)

    feature = np.full((n_trees, width), -1, dtype=np.int32)
    threshold = np.full((n_trees, width), np.nan)
    left = np.full((n_trees, width), -1, dtype=np.int32)
    value = np.full((n_trees, width), np.nan)
    # each node's segment [start, start + size) of both sorted orders, and
    # the bootstrap entries (total weight) of its rows
    start = np.zeros((n_trees, width), dtype=np.int32)
    size = np.zeros((n_trees, width), dtype=np.int32)
    count = np.zeros((n_trees, width), dtype=np.int32)
    size[:, 0] = np.count_nonzero(w, axis=1)
    count[:, 0] = n
    n_used = np.ones(n_trees, dtype=np.intp)
    n_drawn = np.zeros(n_trees, dtype=np.intp)
    stack = np.zeros((n_trees, width), dtype=np.int32)
    depth = np.full(n_trees, int(n >= 2 * MIN_NODE_SIZE), dtype=np.intp)

    def split(t, node):
        """Score the popped nodes (one per tree in t) and split those that can."""
        f = split_on[t, n_drawn[t]]
        lo = start[t, node]
        m = size[t, node]
        c = count[t, node]
        run, j, first = _runs(m)
        fx = (f * n_trees + t) * n
        row = order[(fx + lo)[run] + j]
        ys = y[row]
        varies = np.minimum.reduceat(ys, first) < np.maximum.reduceat(ys, first)
        n_drawn[t[varies]] += 1
        if not varies.all():
            t, node, f, lo, m, c = (a[varies] for a in (t, node, f, lo, m, c))
            keep = varies[run]
            row, ys = row[keep], ys[keep]
            run, j, first = _runs(m)
        xs = xt[(f * n)[run] + row]
        ws = w.ravel()[(t * n)[run] + row]
        # bootstrap entries of each row and the rows before it in its node
        n_to = np.cumsum(ws)
        n_to -= (n_to[first] - ws[first])[run]
        # legal boundaries, between distinct values with MIN_NODE_SIZE entries
        # on each side; a node's last row never is one, so xs[k + 1] is its own
        n_left = n_to[:-1]
        sized = (n_left >= MIN_NODE_SIZE) & (c[run[:-1]] - n_left >= MIN_NODE_SIZE)
        ok = np.flatnonzero(sized & (xs[:-1] < xs[1:]))
        if ok.size == 0:
            return
        # sums restart at each node's first row, as a per-node cumsum does
        wide = m.max()
        cell = run * wide + j
        padded = np.zeros((t.size, wide))
        padded.ravel()[cell] = ws * ys
        c1 = np.cumsum(padded, axis=1).ravel()
        cand = run[ok]
        at, end = cell[ok], cand * wide + m[cand] - 1
        n_left = n_to[ok]
        # the children's squared error less the node's sum of y², which is
        # the same at every boundary of a node
        score = -(c1[at] ** 2 / n_left) - (c1[end] - c1[at]) ** 2 / (c[cand] - n_left)
        # each node's first minimum score; NaN (overflowed sums) first, as in np.argmin
        starts = np.flatnonzero(np.append(True, cand[1:] != cand[:-1]))
        low = np.empty(t.size)
        low[cand[starts]] = np.minimum.reduceat(score, starts)
        hit = np.flatnonzero((score == low[cand]) | np.isnan(score))
        hit = hit[np.searchsorted(hit, starts)]
        best, cut = ok[hit], cand[hit]
        mid = 0.5 * (xs[best] + xs[best + 1])
        # midpoints of adjacent floats can round up to hi; the rule is x <= thr
        thr = np.where(mid < xs[best + 1], mid, xs[best])
        m_lo, c_lo = j[best] + 1, n_to[best]

        t, node, f, lo, m, c = t[cut], node[cut], f[cut], lo[cut], m[cut], c[cut]
        kid = n_used[t]
        n_used[t] += 2
        feature[t, node], threshold[t, node] = f, thr
        left[t, node] = kid
        start[t, kid], size[t, kid], count[t, kid] = lo, m_lo, c_lo
        start[t, kid + 1], size[t, kid + 1], count[t, kid + 1] = lo + m_lo, m - m_lo, c - c_lo
        # a child too small to split is a finished leaf and never enters a stack
        for child, entries in ((kid + 1, c - c_lo), (kid, c_lo)):
            big = entries >= 2 * MIN_NODE_SIZE
            stack[t[big], depth[t[big]]] = child[big]
            depth[t[big]] += 1

        # the drawn feature's segment is already cut; stable-partition the other
        is_cut = np.zeros(run[-1] + 1, dtype=bool)
        is_cut[cut] = True
        row = row[is_cut[run]]
        run, j, first = _runs(m)
        go_left[t[run] * n + row] = j < m_lo[run]
        at = ((1 - f) * n_trees + t) * n + lo
        other = order[at[run] + j]
        to_left = go_left[t[run] * n + other]
        lefts_before = np.cumsum(to_left) - to_left
        lefts_before -= lefts_before[first][run]
        dest = np.where(to_left, lefts_before, m_lo[run] + j - lefts_before)
        order[at[run] + dest] = other

    while True:
        t = np.flatnonzero(depth > 0)
        if t.size == 0:
            break
        depth[t] -= 1
        node = stack[t, depth[t]]
        # largest nodes first, so a pass pads its sums to nodes of like size
        by_size = np.argsort(-size[t, node], kind="stable")
        t, node = t[by_size], node[by_size]
        ends = np.cumsum(size[t, node])
        for take in np.split(np.arange(t.size), np.flatnonzero(np.diff(ends // PASS_ROWS)) + 1):
            split(t[take], node[take])
    del w, go_left, stack, split_on, xt

    # leaf means add each leaf's bootstrap entries in draw order; leaves of
    # one size share a pairwise sum along the rows of one matrix. Feature 0's
    # order holds every leaf as one segment. A few trees at a time, label
    # each row with its leaf, then sort each tree's draws by (their row's
    # leaf, draw) into the space of feature 0's order.
    is_leaf = (feature == -1) & (np.arange(width) < n_used[:, None])
    leaf_t, leaf = np.nonzero(is_leaf)
    drawn = order[: n_trees * n].reshape(n_trees, n)
    chunk = max(1, PASS_ROWS // n)
    for first in range(0, n_trees, chunk):
        trees = slice(first, first + chunk)
        in_block = slice(*np.searchsorted(leaf_t, (first, first + chunk)))
        t, node = leaf_t[in_block], leaf[in_block]
        run, j, _ = _runs(size[t, node])
        home = t[run] * n
        leaf_of = np.zeros_like(rows[trees])
        leaf_of.ravel()[home - first * n + order[home + start[t, node][run] + j]] = node[run]
        key = np.take_along_axis(leaf_of, rows[trees], axis=1).astype(np.intp)
        key = n * key + np.arange(n)
        key.sort(axis=1)
        drawn[trees] = np.take_along_axis(rows[trees], key % n, axis=1)
    ys = y[drawn].ravel()
    # each tree's leaves hold its n draws, so they lie end to end in ys
    m = count[leaf_t, leaf]
    at = np.cumsum(m) - m
    # distinct sizes from a sort: np.unique would import numpy.ma
    sizes = np.sort(m)
    for s in sizes[np.flatnonzero(np.diff(sizes, prepend=-1))]:
        pick = np.flatnonzero(m == s)
        value[leaf_t[pick], leaf[pick]] = ys[at[pick, None] + np.arange(s)].mean(axis=1)
    return PackedForest(feature, threshold, left, value)


def predict_forest(forest: PackedForest, rows: np.ndarray) -> np.ndarray:
    """Per-row mean of the forest's tree predictions."""
    return forest.predict(rows)


def impute_forest(
    x1: np.ndarray,
    x2: np.ndarray,
    y: np.ndarray,
    mask: np.ndarray,
    stream: RngStream,
    n_trees: int,
) -> np.ndarray:
    """Forest imputation of one dataset: its values at mask, from one fit.

    A forest of n_trees trees of y on (x1, x2) grows on the observed rows,
    with ``stream`` as the forest stream, and predicts the missing rows.
    """
    keep = ~mask
    n_observed = int(np.count_nonzero(keep))
    if n_observed < MIN_NODE_SIZE:
        raise ValueError(
            f"need at least MIN_NODE_SIZE={MIN_NODE_SIZE} observed rows, got {n_observed}"
        )
    if n_observed == mask.size:
        return np.empty(0)
    x = np.column_stack([x1, x2])
    return predict_forest(fit_forest(x[keep], y[keep], n_trees, stream), x[mask])
