from dataclasses import fields

import numpy as np
import pytest

from imputebench.ampute import IncompleteDataset, Mechanism, MissingnessSpec, ampute
from imputebench.datagen import PopulationSpec, draw_sample, generate_population
from imputebench.forest import (
    MIN_NODE_SIZE,
    ForestParams,
    _best_split,
    fit_forest,
    fit_tree,
    impute_forest,
    predict_forest,
)
from imputebench.imputers import Forest
from imputebench.stochastics import SeedSpec, make_stream


def _xy(n=200, seed=0, noise=0.0):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(n, 2))
    y = 2.0 + 0.8 * x[:, 0] + 0.4 * x[:, 1] + noise * gen.normal(size=n)
    return x, y


class TestForestParams:
    def test_defaults(self):
        assert tuple(f.name for f in fields(ForestParams)) == ("n_trees",)
        assert ForestParams().n_trees == 100
        assert MIN_NODE_SIZE == 5

    @pytest.mark.parametrize("kwargs", [
        {"n_trees": 0},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ForestParams(**kwargs)


class TestFitTree:
    def test_constant_response_single_leaf(self):
        x, _ = _xy(50)
        y = np.full(50, 3.25)
        tree = fit_tree(x, y, make_stream(SeedSpec(90, 0)))
        assert tree.n_nodes == 1
        np.testing.assert_array_equal(tree.predict(x), np.full(50, 3.25))

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
        tree = fit_tree(x, y, make_stream(SeedSpec(90, 2)))
        query = np.random.default_rng(3).normal(size=(500, 2)) * 3
        pred = tree.predict(query)
        assert pred.min() >= y.min() and pred.max() <= y.max()

    def test_deterministic_given_stream(self):
        x, y = _xy(150, seed=4, noise=0.5)
        a = fit_tree(x, y, make_stream(SeedSpec(90, 3)))
        b = fit_tree(x, y, make_stream(SeedSpec(90, 3)))
        for name in ("feature", "threshold", "left", "right", "value"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_min_node_size_respected(self):
        x, y = _xy(60, seed=5, noise=0.5)
        tree = fit_tree(x, y, make_stream(SeedSpec(90, 4)))
        # the leaves partition the tree's bootstrap rows, replayed from a
        # stream with the same address; none may hold fewer than MIN_NODE_SIZE
        rows = make_stream(SeedSpec(90, 4)).generator.integers(0, 60, size=60)
        xb = x[rows]
        leaves = tree.feature == -1
        node = np.zeros(60, dtype=int)
        live = tree.feature[node] >= 0
        while live.any():
            cur = node[live]
            go_left = xb[live, tree.feature[cur]] <= tree.threshold[cur]
            node[live] = np.where(go_left, tree.left[cur], tree.right[cur])
            live = tree.feature[node] >= 0
        _, counts = np.unique(node, return_counts=True)
        assert counts.min() >= MIN_NODE_SIZE
        assert leaves.sum() == len(counts) > 1

    @pytest.mark.parametrize("bad", [
        lambda x, y: (np.empty((0, 2)), np.empty(0)),
        lambda x, y: (x, y[:-1]),
        lambda x, y: (x[:, 0], y),
    ])
    def test_bad_shapes(self, bad):
        x, y = _xy(30)
        bx, by = bad(x, y)
        with pytest.raises(ValueError):
            fit_tree(bx, by, make_stream(SeedSpec(90, 5)))


class TestForest:
    def test_single_tree_forest_matches_fit_tree(self):
        x, y = _xy(120, seed=6, noise=0.5)
        params = ForestParams(n_trees=1)
        stream = make_stream(SeedSpec(91, 0))
        forest = fit_forest(x, y, params, stream)
        lone = fit_tree(x, y, make_stream(SeedSpec(91, 0)).child(0))
        assert len(forest) == 1
        np.testing.assert_array_equal(forest[0].predict(x), lone.predict(x))

    def test_heldout_r_squared(self):
        spec = PopulationSpec(r_squared=0.8, size=2000)
        pop = generate_population(spec, make_stream(SeedSpec(91, 1)))
        x = np.column_stack([pop.x1, pop.x2])
        trees = fit_forest(x[:1000], pop.y[:1000], ForestParams(), make_stream(SeedSpec(91, 2)))
        pred = predict_forest(trees, x[1000:])
        resid = pop.y[1000:] - pred
        r2 = 1.0 - resid @ resid / np.sum((pop.y[1000:] - pop.y[1000:].mean()) ** 2)
        assert r2 > 0.6

    def test_forest_average_within_range(self):
        x, y = _xy(100, seed=7, noise=2.0)
        trees = fit_forest(x, y, ForestParams(n_trees=20), make_stream(SeedSpec(91, 3)))
        pred = predict_forest(trees, np.random.default_rng(8).normal(size=(200, 2)) * 4)
        assert pred.min() >= y.min() and pred.max() <= y.max()

    def test_more_trees_not_worse(self):
        small_mses, big_mses = [], []
        for seed in range(20):
            x, y = _xy(200, seed=100 + seed, noise=0.5)
            xt, yt = _xy(200, seed=300 + seed, noise=0.5)
            for n_trees, sink in ((10, small_mses), (100, big_mses)):
                trees = fit_forest(
                    x, y, ForestParams(n_trees=n_trees), make_stream(SeedSpec(92, seed))
                )
                sink.append(np.mean((predict_forest(trees, xt) - yt) ** 2))
        assert np.mean(big_mses) <= 1.05 * np.mean(small_mses)

    def test_predict_empty_forest(self):
        with pytest.raises(ValueError):
            predict_forest([], np.zeros((3, 2)))


class TestImputeForest:
    def test_zero_missing_identity(self):
        gen = np.random.default_rng(9)
        x1, x2 = gen.normal(size=40), gen.normal(size=40)
        y = x1 + gen.normal(size=40)
        inc = IncompleteDataset(
            x1=x1, x2=x2, y=y, mask=np.zeros(40, dtype=bool), truth_y=y
        )
        completed = impute_forest(
            inc, Forest(ForestParams(n_trees=3)), make_stream(SeedSpec(93, 0))
        )
        np.testing.assert_array_equal(completed.data.y, y)

    def test_noiseless_signal_recovered(self):
        gen = np.random.default_rng(10)
        x1, x2 = gen.normal(size=1000), gen.normal(size=1000)
        truth = 2.0 + 0.8 * x1 + 0.4 * x2
        mask = np.zeros(1000, dtype=bool)
        mask[::10] = True
        y = truth.copy()
        y[mask] = np.nan
        inc = IncompleteDataset(x1=x1, x2=x2, y=y, mask=mask, truth_y=truth)
        completed = impute_forest(inc, Forest(), make_stream(SeedSpec(93, 1)))
        np.testing.assert_array_equal(completed.data.y[~mask], truth[~mask])
        assert np.mean((completed.data.y[mask] - truth[mask]) ** 2) < 0.05

    def test_low_signal_mcar_bias_direction(self):
        spec = PopulationSpec(r_squared=0.2, size=50_000)
        pop = generate_population(spec, make_stream(SeedSpec(93, 2)))
        method = Forest(ForestParams(n_trees=30))
        sigmas, rhos = [], []
        for rep in range(15):
            sample = draw_sample(pop, 1000, make_stream(SeedSpec(94, 2 * rep)))
            inc = ampute(sample, MissingnessSpec(Mechanism.MCAR), make_stream(SeedSpec(94, 2 * rep + 1)))
            completed = impute_forest(inc, method, make_stream(SeedSpec(95, rep)))
            sigmas.append(np.std(completed.data.y, ddof=1))
            rhos.append(np.corrcoef(completed.data.y, completed.data.x1)[0, 1])
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
        inc = IncompleteDataset(x1=x1, x2=x2, y=y, mask=mask, truth_y=truth)
        with pytest.raises(ValueError):
            impute_forest(inc, Forest(), make_stream(SeedSpec(93, 3)))

    def test_one_fit_on_the_imputation_stream(self):
        gen = np.random.default_rng(12)
        x1, x2 = gen.normal(size=60), gen.normal(size=60)
        truth = x1 + 0.5 * gen.normal(size=60)
        mask = np.zeros(60, dtype=bool)
        mask[::4] = True
        y = truth.copy()
        y[mask] = np.nan
        inc = IncompleteDataset(x1=x1, x2=x2, y=y, mask=mask, truth_y=truth)
        params = ForestParams(n_trees=4)
        completed = impute_forest(inc, Forest(params), make_stream(SeedSpec(93, 4)))
        trees = fit_forest(
            np.column_stack([x1[~mask], x2[~mask]]), truth[~mask], params,
            make_stream(SeedSpec(93, 4)),
        )
        expected = predict_forest(trees, np.column_stack([x1[mask], x2[mask]]))
        np.testing.assert_array_equal(completed.data.y[mask], expected)
