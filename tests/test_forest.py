from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import block_of_one
from imputebench.ampute import Mechanism, ampute
from imputebench.datagen import PopulationSpec, draw_sample, generate_population
from imputebench.forest import (
    MIN_NODE_SIZE,
    PASS_ROWS,
    PackedForest,
    _tree_orders,
    fit_forest,
    impute_forest,
    predict_forest,
)
from imputebench.imputers import Forest
from imputebench.stochastics import SeedSpec, make_stream

from forest_reference import TreeBuilder, fit_tree_duplicated


def _xy(n=200, seed=0, noise=0.0):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(n, 2))
    y = 2.0 + 0.8 * x[:, 0] + 0.4 * x[:, 1] + noise * gen.normal(size=n)
    return x, y


# --- reference: the per-node grower that fit_forest must reproduce bit for bit


def _best_split(xs: np.ndarray, ys: np.ndarray, ws: np.ndarray | None = None) -> float | None:
    """Threshold of one feature's best boundary, or None when none is legal.

    xs must be ascending; ws weights each row (its bootstrap count, 1 by
    default). Scores every split point k (left = xs[:k+1]) where the
    neighbours differ and both children keep MIN_NODE_SIZE weight by
    -c1**2/n_left - (t1 - c1)**2/n_right, with c1 the weighted sum of y
    left of it: the children's squared error less the node's y² total.
    The first-minimum convention resolves equal scores to the smallest
    threshold, and the first NaN wins, as np.argmin has it.
    """
    ws = np.ones(xs.size) if ws is None else ws
    c1 = np.cumsum(ws * ys)
    n_to = np.cumsum(ws)
    t1 = c1[-1]
    n_left = n_to[:-1]
    n_right = n_to[-1] - n_left
    valid = (xs[:-1] < xs[1:]) & (n_left >= MIN_NODE_SIZE) & (n_right >= MIN_NODE_SIZE)
    if not valid.any():
        return None
    score = -(c1[:-1] ** 2 / n_left) - (t1 - c1[:-1]) ** 2 / n_right
    best = int(np.argmin(np.where(valid, score, np.inf)))
    lo, hi = xs[best], xs[best + 1]
    mid = 0.5 * (lo + hi)
    # midpoints of adjacent floats can round up to hi; the rule is x <= thr
    thr = mid if mid < hi else lo
    return float(thr)


def fit_tree(x: np.ndarray, y: np.ndarray, stream) -> dict[str, np.ndarray]:
    """Grow one CART regression tree on the distinct rows of a bootstrap.

    Each row is weighted by its bootstrap count, and a node's size is its
    weight. The rows of each feature are ordered by (x, row). A leaf's
    value is the mean of its bootstrap entries in draw order. Stream use,
    in order: the bootstrap index draw, then one feature permutation per
    splittable node in depth-first, left-first order; the node splits on
    the permutation's first entry.
    """
    n, p = x.shape
    gen = stream.generator
    rows = gen.integers(0, n, size=n)
    w = np.bincount(rows, minlength=n)
    order = [np.argsort(x[:, f], kind="stable") for f in range(p)]
    order = [o[w[o] > 0] for o in order]

    tree = TreeBuilder()
    member_root = w > 0
    stack = [(tree.add(), member_root)]
    while stack:
        node_id, member = stack.pop()
        node_y = y[member]
        tree.value[node_id] = float(y[rows[member[rows]]].mean())
        if w[member].sum() < 2 * MIN_NODE_SIZE or node_y.min() == node_y.max():
            continue
        f = int(gen.permutation(p)[0])
        sel = order[f][member[order[f]]]
        thr = _best_split(x[sel, f], y[sel], w[sel])
        if thr is None:
            continue
        go_left = member & (x[:, f] <= thr)
        left_id = tree.add()
        right_id = tree.add()
        tree.feature[node_id] = f
        tree.threshold[node_id] = thr
        tree.left[node_id] = left_id
        tree.right[node_id] = right_id
        stack.append((right_id, member & ~go_left))
        stack.append((left_id, go_left))
    return tree.freeze()


def _assert_matches_reference(x, y, n_trees, spec, reference=fit_tree):
    """Every tree of fit_forest equals the reference tree on its child stream."""
    forest = fit_forest(x, y, n_trees, make_stream(spec))
    assert forest.feature.shape == (n_trees, 2 * (len(y) // MIN_NODE_SIZE) + 1)
    for t in range(n_trees):
        ref = reference(x, y, make_stream(spec).child(t))
        k = ref["feature"].size
        assert forest.n_nodes[t] == k
        for name in ("feature", "threshold", "left", "right"):
            np.testing.assert_array_equal(getattr(forest, name)[t, :k], ref[name])
        leaf = ref["feature"] == -1
        np.testing.assert_array_equal(forest.value[t, :k][leaf], ref["value"][leaf])
        assert (forest.feature[t, k:] == -1).all()



def _reference_predict(x, y, spec, n_trees, query):
    """Mean of the reference trees' predictions, walked one level at a time."""
    total = np.zeros(len(query))
    for t in range(n_trees):
        ref = fit_tree(x, y, make_stream(spec).child(t))
        node = np.zeros(len(query), dtype=np.intp)
        while (ref["feature"][node] >= 0).any():
            split = ref["feature"][node] >= 0
            cur = node[split]
            go_left = query[split, ref["feature"][cur]] <= ref["threshold"][cur]
            node[split] = np.where(go_left, ref["left"][cur], ref["right"][cur])
        total += ref["value"][node]
    return total / n_trees

def _ci_forest_sample():
    """Observed rows of one ci-scale forest-cell sample: 10^5 population, 1,000 rows, MAR."""
    pop = generate_population(PopulationSpec(r_squared=0.2, size=100_000), make_stream(SeedSpec(98, 0)))
    sample = draw_sample(pop, 1000, make_stream(SeedSpec(98, 1)))
    inc = ampute(sample, Mechanism.MAR_RIGHT, make_stream(SeedSpec(98, 2)))
    keep = ~inc.mask
    return np.column_stack([inc.x1[keep], inc.x2[keep]]), inc.y[keep]


def _rounded_x():
    x, y = _xy(300, seed=20, noise=0.5)
    return np.round(x, 1), y


def _constant_y_block():
    x, y = _xy(300, seed=21, noise=0.5)
    y[x[:, 0] < 0.3] = 1.25
    return x, y


def _binary_y():
    # small integer sums: symmetric boundaries score exactly equal
    gen = np.random.default_rng(27)
    x = np.round(gen.normal(size=(300, 2)), 1)
    return x, (gen.random(300) < 0.5).astype(float)


def _root_never_splits():
    return _xy(2 * MIN_NODE_SIZE - 1, seed=22, noise=0.5)


def _adjacent_floats():
    # x takes two adjacent floats whose midpoint rounds up to the larger one
    lo = 1.0 + np.spacing(1.0)
    hi = np.nextafter(lo, 2.0)
    gen = np.random.default_rng(23)
    upper = gen.random((300, 2)) < 0.5
    return np.where(upper, hi, lo), upper @ np.array([1.0, 2.0]) + 0.1 * gen.normal(size=300)


class TestForestParams:
    # a forest's one setting is Forest.n_trees
    def test_defaults(self):
        assert tuple(f.name for f in fields(Forest)) == ("n_trees",)
        assert Forest().n_trees == 100
        assert MIN_NODE_SIZE == 5

    @pytest.mark.parametrize("kwargs", [
        {"n_trees": 0},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError, match="n_trees must be at least 1, got 0"):
            Forest(**kwargs)


class TestFitTree:
    """Single trees of a fitted forest, and the reference split rule."""

    def test_constant_response_single_leaf(self):
        x, _ = _xy(50)
        y = np.full(50, 3.25)
        forest = fit_forest(x, y, 3, make_stream(SeedSpec(90, 0)))
        np.testing.assert_array_equal(forest.n_nodes, [1, 1, 1])
        np.testing.assert_array_equal(forest.predict(x), np.full(50, 3.25))

    def test_step_function_recovered(self):
        xs = np.sort(np.random.default_rng(1).normal(size=200))
        ys = (xs > 0).astype(float)
        thr = _best_split(xs, ys)
        assert xs[ys == 0].max() < thr < xs[ys == 1].min()

    def test_tied_scores_take_smallest_threshold(self):
        # a constant response scores every legal boundary equally
        xs = np.arange(20.0)
        assert _best_split(xs, np.ones(20)) == MIN_NODE_SIZE - 0.5
        assert _best_split(xs[: 2 * MIN_NODE_SIZE - 1], np.ones(2 * MIN_NODE_SIZE - 1)) is None

    def test_predictions_within_training_range(self):
        x, y = _xy(300, seed=2, noise=1.0)
        forest = fit_forest(x, y, 1, make_stream(SeedSpec(90, 2)))
        query = np.random.default_rng(3).normal(size=(500, 2)) * 3
        pred = forest.predict(query)
        assert pred.min() >= y.min() and pred.max() <= y.max()

    def test_deterministic_given_stream(self):
        x, y = _xy(150, seed=4, noise=0.5)
        a = fit_forest(x, y, 5, make_stream(SeedSpec(90, 3)))
        b = fit_forest(x, y, 5, make_stream(SeedSpec(90, 3)))
        for name in ("feature", "threshold", "left", "right", "value"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_min_node_size_respected(self):
        x, y = _xy(60, seed=5, noise=0.5)
        forest = fit_forest(x, y, 1, make_stream(SeedSpec(90, 4)))
        feature, threshold = forest.feature[0], forest.threshold[0]
        left, right = forest.left[0], forest.right[0]
        # the leaves partition the tree's bootstrap rows, replayed from the
        # tree's child stream; none may hold fewer than MIN_NODE_SIZE
        rows = make_stream(SeedSpec(90, 4)).child(0).generator.integers(0, 60, size=60)
        xb = x[rows]
        node = np.zeros(60, dtype=int)
        live = feature[node] >= 0
        while live.any():
            cur = node[live]
            go_left = xb[live, feature[cur]] <= threshold[cur]
            node[live] = np.where(go_left, left[cur], right[cur])
            live = feature[node] >= 0
        _, counts = np.unique(node, return_counts=True)
        assert counts.min() >= MIN_NODE_SIZE
        assert (forest.n_nodes[0] + 1) // 2 == len(counts) > 1

    @pytest.mark.parametrize("bad", [
        lambda x, y: (np.empty((0, 2)), np.empty(0)),
        lambda x, y: (x, y[:-1]),
        lambda x, y: (x[:, 0], y),
    ])
    def test_bad_shapes(self, bad):
        x, y = _xy(30)
        bx, by = bad(x, y)
        with pytest.raises(ValueError):
            fit_forest(bx, by, 1, make_stream(SeedSpec(90, 5)))

    @pytest.mark.parametrize("n_columns", [1, 3])
    def test_two_columns_required(self, n_columns):
        # one feature bit per split picks one of exactly two columns
        x = np.random.default_rng(26).normal(size=(30, n_columns))
        with pytest.raises(ValueError, match=f"two columns .*got {n_columns}"):
            fit_forest(x, x[:, 0], 1, make_stream(SeedSpec(90, 5)))

    @pytest.mark.parametrize("name", ["x", "y"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_refused(self, name, bad):
        # NaN would leave a node unsplit silently, and sorts apart from the reference
        x, y = _xy(30)
        (x if name == "x" else y).flat[7] = bad
        with pytest.raises(ValueError, match=f"^{name} holds a non-finite value$"):
            fit_forest(x, y, 1, make_stream(SeedSpec(90, 5)))

    @pytest.mark.parametrize("n", [1, 7, 256, 65_536])
    def test_tree_orders_sort_distinct_rows_by_x(self, n):
        # each tree keeps only its drawn rows, stably sorted by x: tied x by row
        gen = np.random.default_rng(n)
        x = np.column_stack([gen.permutation(n), gen.integers(0, 7, size=n)]).astype(float)
        rows = gen.integers(0, n, size=(3, n))
        w = np.stack([np.bincount(r, minlength=n) for r in rows])
        orders = _tree_orders(x, w)
        assert orders.shape == (2, 3, n)
        for f in range(2):
            for t in range(3):
                drawn = np.flatnonzero(w[t])
                expected = drawn[np.lexsort((drawn, x[drawn, f]))]
                np.testing.assert_array_equal(orders[f, t, : drawn.size], expected)


class TestMatchesReference:
    @pytest.mark.parametrize("data, n_trees", [
        (_ci_forest_sample, 100),
        (_rounded_x, 20),
        (_constant_y_block, 20),
        (_binary_y, 20),
        (_root_never_splits, 5),
        (_adjacent_floats, 20),
    ], ids=[
        "ci-sample", "rounded-x", "constant-y-block", "binary-y", "root-never-splits",
        "adjacent-floats",
    ])
    def test_trees_bit_identical(self, data, n_trees):
        x, y = data()
        _assert_matches_reference(x, y, n_trees, SeedSpec(96, n_trees))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 80), n_trees=st.integers(1, 4))
    def test_tie_heavy_inputs(self, data, n, n_trees):
        # few distinct values: tied x, tied scores and constant nodes everywhere
        values = st.sampled_from([-1.5, -0.0, 0.0, 1.0, 2.0])
        x = data.draw(arrays(np.float64, (n, 2), elements=values))
        y = data.draw(arrays(np.float64, n, elements=values))
        _assert_matches_reference(x, y, n_trees, SeedSpec(96, data.draw(st.integers(0, 999))))

    def test_overflowing_sums(self):
        # c1 * c1 overflows, so scores are -inf; the first -inf wins
        x, y = _xy(200, seed=3, noise=0.5)
        with np.errstate(over="ignore", invalid="ignore"):
            _assert_matches_reference(x, y * 1e160, 10, SeedSpec(96, 5))

    def test_overflowing_weighted_sums(self):
        # c1 itself overflows past some boundaries, where t1 - c1 is inf - inf:
        # those scores are NaN, and the first NaN wins, as np.argmin has it
        x, y = _xy(200, seed=3, noise=0.5)
        y = 1e307 * y
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(np.cumsum(y)).all()
            _assert_matches_reference(x, y, 10, SeedSpec(96, 5))

    def test_adjacent_floats_split_at_the_lower_value(self):
        # x <= thr must keep lo left and hi right; the midpoint rounds to hi
        x, y = _adjacent_floats()
        lo, hi = np.unique(x)
        assert 0.5 * (lo + hi) == hi
        forest = fit_forest(x, y, 20, make_stream(SeedSpec(96, 20)))
        thr = forest.threshold[forest.feature >= 0]
        assert thr.size > 0 and (thr == lo).all()

    def test_predictions_bit_identical(self):
        x, y = _xy(200, seed=24, noise=0.5)
        spec = SeedSpec(96, 99)
        forest = fit_forest(x, y, 30, make_stream(spec))
        # 300 rows: predict adds PASS_ROWS // 300 = 13 trees per chunk, in three chunks
        query = np.random.default_rng(25).normal(size=(300, 2))
        # rows sitting on each root's threshold must go left: the rule is x <= thr
        query[-30:] = forest.threshold[:, :1]
        np.testing.assert_array_equal(
            predict_forest(forest, query), _reference_predict(x, y, spec, 30, query)
        )

    def test_predictions_past_pass_rows(self):
        # more query rows than PASS_ROWS: every chunk holds a single tree
        x, y = _xy(200, seed=28, noise=0.5)
        spec = SeedSpec(96, 98)
        forest = fit_forest(x, y, 7, make_stream(spec))
        query = np.random.default_rng(29).normal(size=(5000, 2))
        assert len(query) > PASS_ROWS
        np.testing.assert_array_equal(
            predict_forest(forest, query), _reference_predict(x, y, spec, 7, query)
        )

    def test_predict_no_rows(self):
        x, y = _xy(100, seed=30, noise=0.5)
        forest = fit_forest(x, y, 3, make_stream(SeedSpec(96, 97)))
        pred = predict_forest(forest, np.empty((0, 2)))
        assert pred.shape == (0,) and pred.dtype == np.float64


class TestMatchesDuplicatedRows:
    """On continuous data, weighting distinct rows and leaving out the y²
    total change no tree against growing on the duplicated rows."""

    @pytest.mark.parametrize("data, n_trees", [
        (_ci_forest_sample, 100),
        (lambda: _xy(300, seed=31, noise=0.5), 50),
        (lambda: _xy(1000, seed=32, noise=2.0), 20),
    ], ids=["ci-sample", "continuous-300", "continuous-1000"])
    def test_trees_bit_identical(self, data, n_trees):
        x, y = data()
        _assert_matches_reference(x, y, n_trees, SeedSpec(96, n_trees), fit_tree_duplicated)


def _generator_state(gen):
    state = gen.bit_generator.state
    return (
        state["state"]["counter"].tolist(), state["state"]["key"].tolist(),
        state["buffer"].tolist(), state["buffer_pos"], state["has_uint32"], state["uinteger"],
    )


class TestStreamContract:
    @pytest.mark.parametrize("n", [499, 500])
    def test_feature_bits_equal_permutation_draws(self, n):
        k = 2 * (n // MIN_NODE_SIZE) + 1
        for t in range(4):
            packed = make_stream(SeedSpec(97, n)).child(t).generator
            per_node = make_stream(SeedSpec(97, n)).child(t).generator
            np.testing.assert_array_equal(
                packed.integers(0, n, size=n), per_node.integers(0, n, size=n)
            )
            bits = 1 - (packed.integers(0, 2**32, size=k, dtype=np.uint32) & 1)
            firsts = [per_node.permutation(2)[0] for _ in range(k)]
            np.testing.assert_array_equal(bits, firsts)
            assert _generator_state(packed) == _generator_state(per_node)


class TestForest:
    def test_single_tree_forest_matches_fit_tree(self):
        x, y = _xy(120, seed=6, noise=0.5)
        lone = fit_forest(x, y, 1, make_stream(SeedSpec(91, 0)))
        seven = fit_forest(x, y, 7, make_stream(SeedSpec(91, 0)))
        assert lone.n_trees == 1 and seven.n_trees == 7
        for name in ("feature", "threshold", "left", "right", "value"):
            np.testing.assert_array_equal(getattr(lone, name)[0], getattr(seven, name)[0])
        ref = fit_tree(x, y, make_stream(SeedSpec(91, 0)).child(0))
        np.testing.assert_array_equal(lone.feature[0, : lone.n_nodes[0]], ref["feature"])

    def test_heldout_r_squared(self):
        spec = PopulationSpec(r_squared=0.8, size=2000)
        pop = generate_population(spec, make_stream(SeedSpec(91, 1)))
        x = np.column_stack([pop.x1, pop.x2])
        forest = fit_forest(x[:1000], pop.y[:1000], 100, make_stream(SeedSpec(91, 2)))
        pred = predict_forest(forest, x[1000:])
        resid = pop.y[1000:] - pred
        r2 = 1.0 - resid @ resid / np.sum((pop.y[1000:] - pop.y[1000:].mean()) ** 2)
        assert r2 > 0.6

    def test_forest_average_within_range(self):
        x, y = _xy(100, seed=7, noise=2.0)
        forest = fit_forest(x, y, 20, make_stream(SeedSpec(91, 3)))
        pred = predict_forest(forest, np.random.default_rng(8).normal(size=(200, 2)) * 4)
        assert pred.min() >= y.min() and pred.max() <= y.max()

    def test_more_trees_not_worse(self):
        small_mses, big_mses = [], []
        for seed in range(20):
            x, y = _xy(200, seed=100 + seed, noise=0.5)
            xt, yt = _xy(200, seed=300 + seed, noise=0.5)
            for n_trees, sink in ((10, small_mses), (100, big_mses)):
                forest = fit_forest(
                    x, y, n_trees, make_stream(SeedSpec(92, seed))
                )
                sink.append(np.mean((predict_forest(forest, xt) - yt) ** 2))
        assert np.mean(big_mses) <= 1.05 * np.mean(small_mses)

    def test_predict_empty_forest(self):
        none = PackedForest(*(np.empty((0, 3)) for _ in range(5)))
        with pytest.raises(ValueError):
            predict_forest(none, np.zeros((3, 2)))


class TestImputeForest:
    def test_zero_missing_identity(self):
        gen = np.random.default_rng(9)
        x1, x2 = gen.normal(size=40), gen.normal(size=40)
        y = x1 + gen.normal(size=40)
        inc = block_of_one(x1, x2, y, np.zeros(40, dtype=bool), y)
        completed = Forest(n_trees=3).impute_block(inc, [make_stream(SeedSpec(93, 0))])
        np.testing.assert_array_equal(completed[0], y)

    def test_noiseless_signal_recovered(self):
        gen = np.random.default_rng(10)
        x1, x2 = gen.normal(size=1000), gen.normal(size=1000)
        truth = 2.0 + 0.8 * x1 + 0.4 * x2
        mask = np.zeros(1000, dtype=bool)
        mask[::10] = True
        y = truth.copy()
        y[mask] = np.nan
        inc = block_of_one(x1, x2, y, mask, truth)
        completed = Forest().impute_block(inc, [make_stream(SeedSpec(93, 1))])[0]
        np.testing.assert_array_equal(completed[~mask], truth[~mask])
        assert np.mean((completed[mask] - truth[mask]) ** 2) < 0.05

    def test_low_signal_mcar_bias_direction(self):
        spec = PopulationSpec(r_squared=0.2, size=50_000)
        pop = generate_population(spec, make_stream(SeedSpec(93, 2)))
        method = Forest(n_trees=30)
        sigmas, rhos = [], []
        for rep in range(15):
            sample = draw_sample(pop, 1000, make_stream(SeedSpec(94, 2 * rep)))
            inc = ampute(sample, Mechanism.MCAR, make_stream(SeedSpec(94, 2 * rep + 1)))
            completed = method.impute_block(inc, [make_stream(SeedSpec(95, rep))])[0]
            sigmas.append(np.std(completed, ddof=1))
            rhos.append(np.corrcoef(completed, inc.x1[0])[0, 1])
        # regression to the leaf mean shrinks spread and inflates the x1 link
        assert np.mean(sigmas) < 1.0
        assert np.mean(rhos) > 0.50

    def test_insufficient_observed_rows(self):
        gen = np.random.default_rng(11)
        x1, x2 = gen.normal(size=6), gen.normal(size=6)
        truth = x1.copy()
        mask = np.array([True, True, True, False, False, True])
        y = truth.copy()
        y[mask] = np.nan
        with pytest.raises(ValueError):
            impute_forest(x1, x2, y, mask, make_stream(SeedSpec(93, 3)), n_trees=100)

    def test_one_fit_on_the_imputation_stream(self):
        gen = np.random.default_rng(12)
        x1, x2 = gen.normal(size=60), gen.normal(size=60)
        truth = x1 + 0.5 * gen.normal(size=60)
        mask = np.zeros(60, dtype=bool)
        mask[::4] = True
        y = truth.copy()
        y[mask] = np.nan
        values = impute_forest(x1, x2, y, mask, make_stream(SeedSpec(93, 4)), n_trees=4)
        forest = fit_forest(
            np.column_stack([x1[~mask], x2[~mask]]), truth[~mask], 4,
            make_stream(SeedSpec(93, 4)),
        )
        expected = predict_forest(forest, np.column_stack([x1[mask], x2[mask]]))
        np.testing.assert_array_equal(values, expected)
