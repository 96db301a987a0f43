import dataclasses
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import block_of_one, completed_of, traced_peak
from imputebench.ampute import Mechanism, ampute
from imputebench.datagen import Dataset, PopulationSpec, draw_sample, generate_population
from imputebench.downstream import estimate_params
from imputebench.forest import PASS_ROWS, impute_forest
from imputebench.imputers import (
    PMM_DONORS,
    Draw,
    Forest,
    ImputationMethod,
    Pmm,
    Predict,
    SoftImpute,
    impute_pmm,
    impute_softimpute,
)
from imputebench.linmodel import fit_ols, predict
from imputebench.stochastics import SeedSpec, make_stream

from als_reference import als_matrix_complete
from pmm_reference import dense_pmm

MCAR = Mechanism.MCAR
MAR = Mechanism.MAR_RIGHT
# predict and softimpute draw nothing from their stream
UNUSED = make_stream(SeedSpec(0, 0))


@pytest.fixture(scope="module")
def low_pop():
    spec = PopulationSpec(r_squared=0.2, size=100_000)
    return generate_population(spec, make_stream(SeedSpec(60, 0)))


@pytest.fixture(scope="module")
def high_pop():
    spec = PopulationSpec(r_squared=0.8, size=100_000)
    return generate_population(spec, make_stream(SeedSpec(60, 1)))


def _amputed(pop, mech, rep, n=1000, seed=61):
    sample = draw_sample(pop, n, make_stream(SeedSpec(seed, 2 * rep)))
    return ampute(sample, mech, make_stream(SeedSpec(seed, 2 * rep + 1)))


def _no_missing(n=50, seed=0):
    gen = np.random.default_rng(seed)
    x1, x2 = gen.normal(size=n), gen.normal(size=n)
    y = 1.0 + 0.5 * x1 + gen.normal(size=n)
    return block_of_one(x1, x2, y, np.zeros(n, dtype=bool), y)


def _observed_fit(inc):
    keep = ~inc.mask
    return fit_ols(inc.x1[keep], inc.x2[keep], inc.y[keep])


def _fitted_at_missing(fit, inc):
    return predict(fit.coefficients, inc.x1[inc.mask], inc.x2[inc.mask])


def _noiseless(n=200, seed=1, mask_every=4):
    gen = np.random.default_rng(seed)
    x1, x2 = gen.normal(size=n), gen.normal(size=n)
    truth = 2.0 + 0.8 * x1 + 0.4 * x2
    mask = np.zeros(n, dtype=bool)
    mask[::mask_every] = True
    y = truth.copy()
    y[mask] = np.nan
    return block_of_one(x1, x2, y, mask, truth)


def _row(method, inc, stream=UNUSED):
    """The completed y of the block of one inc, as a 1-D row."""
    return method.impute_block(inc, [stream])[0]


class TestMethodParams:
    def test_labels(self):
        assert Predict().label == "predict"
        assert Draw().label == "draw"
        assert Pmm().label == "pmm"
        assert SoftImpute().label == "softimpute"
        assert Forest().label == "forest"

    def test_defaults(self):
        for method in (Predict, Draw, Pmm, SoftImpute):
            assert dataclasses.fields(method) == ()
        assert tuple(f.name for f in dataclasses.fields(Forest)) == ("n_trees",)
        assert Forest().n_trees == 100
        assert PMM_DONORS == 5


class TestPredictMethod:
    def test_zero_missing_is_identity(self):
        inc = _no_missing()
        completed = _row(Predict(), inc)
        np.testing.assert_array_equal(completed, inc.y[0])

    def test_noiseless_exact_recovery(self):
        inc = _noiseless()
        completed = _row(Predict(), inc)
        err = completed[inc.mask[0]] - inc.truth_y[inc.mask]
        assert np.mean(err**2) < 1e-20

    def test_imputed_subset_sd_matches_signal_sd(self, low_pop):
        # predict reproduces only the signal part: sd = sqrt(var(y) - sigma_eps^2)
        inc = _amputed(low_pop, MCAR, rep=0, n=10_000)
        completed = _row(Predict(), inc)
        assert np.std(completed[inc.mask[0]]) == pytest.approx(np.sqrt(0.28), abs=0.02)

    def test_lands_on_fitted_hyperplane(self, low_pop):
        inc = _amputed(low_pop, MAR, rep=1)
        completed = _row(Predict(), inc)
        resid = completed[inc.mask[0]] - _fitted_at_missing(_observed_fit(inc), inc)
        assert np.max(np.abs(resid)) < 1e-10


class TestDrawMethod:
    def test_noise_variance_matches_residual_variance(self, low_pop):
        inc = _amputed(low_pop, MCAR, rep=2)
        fit = _observed_fit(inc)
        completed = _row(Draw(), inc, make_stream(SeedSpec(62, 0)))
        noise = completed[inc.mask[0]] - _fitted_at_missing(fit, inc)
        assert np.var(noise) == pytest.approx(fit.residual_variance, rel=0.15)

    def test_low_signal_mar_sigma(self, low_pop):
        sds = []
        for rep in range(40):
            inc = _amputed(low_pop, MAR, rep=rep, seed=63)
            completed = _row(Draw(), inc, make_stream(SeedSpec(64, rep)))
            sds.append(np.std(completed, ddof=1))
        assert np.mean(sds) == pytest.approx(1.04, abs=0.03)

    def test_restores_variance_under_mcar(self, low_pop):
        inc = _amputed(low_pop, MCAR, rep=3, n=10_000)
        completed = _row(Draw(), inc, make_stream(SeedSpec(65, 0)))
        observed_var = np.var(inc.y[~inc.mask])
        assert np.var(completed) == pytest.approx(observed_var, rel=0.05)

    def test_deterministic_given_stream(self, low_pop):
        inc = _amputed(low_pop, MCAR, rep=4)
        a = _row(Draw(), inc, make_stream(SeedSpec(66, 0)))
        b = _row(Draw(), inc, make_stream(SeedSpec(66, 0)))
        np.testing.assert_array_equal(a, b)


class TestPmmMethod:
    def test_imputed_values_are_observed_values(self, low_pop):
        inc = _amputed(low_pop, MCAR, rep=6)
        completed = _row(Pmm(), inc, make_stream(SeedSpec(68, 0)))
        observed = set(inc.y[~inc.mask].tolist())
        assert all(v in observed for v in completed[inc.mask[0]])

    def test_range_preservation(self, low_pop):
        inc = _amputed(low_pop, MAR, rep=7)
        completed = _row(Pmm(), inc, make_stream(SeedSpec(68, 1)))
        y_obs = inc.y[~inc.mask]
        assert completed.min() >= y_obs.min()
        assert completed.max() <= y_obs.max()

    def test_single_donor_forced_match(self):
        # noiseless data; the first five base rows get PMM_DONORS more copies
        # and the last copy is masked, so each masked row has PMM_DONORS
        # exact observed duplicates. sigma_hat = 0, so the drawn coefficients
        # equal the fit, the donor pool is the duplicates, and each one's y
        # is the hidden truth
        gen = np.random.default_rng(2)
        base_x1, base_x2 = gen.normal(size=30), gen.normal(size=30)
        x1 = np.concatenate([base_x1] + [base_x1[:5]] * PMM_DONORS)
        x2 = np.concatenate([base_x2] + [base_x2[:5]] * PMM_DONORS)
        truth = 1.0 + 0.8 * x1 + 0.4 * x2
        mask = np.zeros(x1.size, dtype=bool)
        mask[-5:] = True
        y = truth.copy()
        y[mask] = np.nan
        inc = block_of_one(x1, x2, y, mask, truth)
        for k in range(20):
            completed = _row(Pmm(), inc, make_stream(SeedSpec(69, k)))
            np.testing.assert_allclose(completed[mask], truth[mask], atol=1e-10)

    def test_low_signal_mcar_table_values(self, low_pop):
        sigmas, rhos = [], []
        for rep in range(200):
            inc = _amputed(low_pop, MCAR, rep=rep, seed=70)
            completed = _row(Pmm(), inc, make_stream(SeedSpec(71, rep)))
            sigmas.append(np.std(completed, ddof=1))
            rhos.append(np.corrcoef(completed, inc.x1[0])[0, 1])
        assert np.mean(sigmas) == pytest.approx(1.04, abs=0.03)
        assert np.mean(rhos) == pytest.approx(0.48, abs=0.03)

    def test_donor_count_validation(self):
        inc = _noiseless(n=5, mask_every=5)
        assert np.count_nonzero(~inc.mask) == PMM_DONORS - 1
        with pytest.raises(ValueError):
            _row(Pmm(), inc, make_stream(SeedSpec(72, 1)))

    def test_donor_pool_equal_to_observed_rows(self):
        # PMM_DONORS == n_obs means every observed value is a legal donor
        inc = _noiseless(n=10, mask_every=2)
        assert np.count_nonzero(~inc.mask) == PMM_DONORS
        completed = _row(Pmm(), inc, make_stream(SeedSpec(72, 2)))
        observed = set(inc.y[~inc.mask].tolist())
        assert all(v in observed for v in completed[inc.mask[0]])

    @settings(max_examples=40, deadline=None)
    @given(
        n_obs=st.integers(PMM_DONORS, 1500),
        n_mis=st.integers(0, 1500),
        n_distinct=st.integers(3, 3000),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_obs=PMM_DONORS, n_mis=37, n_distinct=3000, seed=1)  # every row a donor
    @example(n_obs=PASS_ROWS + 1, n_mis=3, n_distinct=3000, seed=2)  # one row a block
    @example(n_obs=PASS_ROWS // 3, n_mis=10, n_distinct=3000, seed=3)  # a short last block
    @example(n_obs=40, n_mis=0, n_distinct=3, seed=4)  # nothing to impute
    def test_blocked_donor_search_equals_the_dense_one(self, n_obs, n_mis, n_distinct, seed):
        # rows repeat n_distinct base rows, and repeated rows tie in predicted value
        gen = np.random.default_rng(seed)
        base_x1, base_x2 = gen.normal(size=(2, n_distinct))
        # base rows 0-2 are observed, so the fit sees three distinct points
        pick = np.concatenate([[0, 1, 2], gen.integers(0, n_distinct, size=n_obs + n_mis - 3)])
        order = gen.permutation(pick.size)
        x1, x2 = base_x1[pick][order], base_x2[pick][order]
        y = 1.0 + 0.8 * x1 + 0.4 * x2 + gen.normal(size=pick.size)
        mask = (np.arange(pick.size) >= n_obs)[order]
        blocked, dense = make_stream(SeedSpec(74, seed)), make_stream(SeedSpec(74, seed))
        got = impute_pmm(x1, x2, y, mask, blocked)
        want = dense_pmm(x1, x2, y, mask, dense)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        state = [stream.generator.bit_generator.state for stream in (blocked, dense)]
        np.testing.assert_equal(*state)


@pytest.mark.parametrize(
    "impute, limit",
    [(impute_pmm, 0.5e6), (partial(impute_forest, n_trees=100), 3.25e6)],
    ids=["pmm", "forest"],
)
def test_peak_memory_above_inputs(impute, limit):
    # a ci-scale sample, half of it masked: the whole-matrix donor search
    # peaked at 4.0 MB, and the forest at 4.5 MB before its passes were bounded
    gen = np.random.default_rng(7)
    x1, x2 = gen.normal(size=(2, 1000))
    y = 1.0 + 0.8 * x1 + 0.4 * x2 + gen.normal(size=1000)
    mask = np.arange(1000) % 2 == 0
    stream = make_stream(SeedSpec(73, 0))
    assert traced_peak(lambda: impute(x1, x2, y, mask, stream)) <= limit


class TestAlsMatrixComplete:
    def test_rank_one_recovery(self):
        gen = np.random.default_rng(3)
        matrix = np.outer(gen.normal(size=20) + 2.0, np.array([1.0, 0.7, -0.5]))
        target = matrix[4, 2]
        holey = matrix.copy()
        holey[4, 2] = np.nan
        recon, objectives, converged = als_matrix_complete(
            holey, rank_max=1, ridge=0.0, max_iter=500, tol=1e-10,
            stream=make_stream(SeedSpec(73, 0)),
        )
        assert converged
        assert abs(recon[4, 2] - target) < 1e-4

    def test_objective_monotone_non_increasing(self):
        gen = np.random.default_rng(4)
        matrix = gen.normal(size=(40, 3))
        matrix[gen.random(size=(40, 3)) < 0.25] = np.nan
        _, objectives, _ = als_matrix_complete(
            matrix, rank_max=2, ridge=0.1, max_iter=100, tol=1e-12,
            stream=make_stream(SeedSpec(73, 1)),
        )
        diffs = np.diff(objectives)
        assert np.all(diffs <= 1e-9 * np.array(objectives[:-1]) + 1e-12)

    def test_observed_entries_fit_with_full_rank(self):
        gen = np.random.default_rng(5)
        matrix = gen.normal(size=(30, 3))
        matrix[2, 1] = np.nan
        recon, _, _ = als_matrix_complete(
            matrix, rank_max=3, ridge=0.0, max_iter=500, tol=1e-12,
            stream=make_stream(SeedSpec(73, 2)),
        )
        observed = np.isfinite(matrix)
        assert np.max(np.abs((recon - matrix)[observed])) < 1e-6

    def test_fixed_point_is_total_least_squares_plane(self, high_pop):
        # rank 2 of three columns, no ridge, holes only in y: the fixed
        # point puts the masked y on the plane orthogonal to the last
        # right singular vector of the observed rows, which softimpute
        # computes directly
        inc = _amputed(high_pop, MCAR, rep=16)
        matrix = np.column_stack([inc.x1[0], inc.x2[0], inc.y[0]])
        recon, _, converged = als_matrix_complete(
            matrix, rank_max=2, ridge=0.0, max_iter=2000, tol=1e-14,
            stream=make_stream(SeedSpec(73, 3)),
        )
        assert converged
        direct = _row(SoftImpute(), inc)[inc.mask[0]]
        np.testing.assert_allclose(recon[inc.mask[0], 2], direct, rtol=0, atol=1e-5)


class TestSoftImputeMethod:
    def test_high_signal_overestimates_fit(self, high_pop):
        rhos, r2s = [], []
        for rep in range(20):
            inc = _amputed(high_pop, MCAR, rep=rep, seed=74)
            completed = SoftImpute().impute_block(inc, [UNUSED])
            rhos.append(np.corrcoef(completed[0], inc.x1[0])[0, 1])
            truth = Dataset(inc.x1[0], inc.x2[0], inc.truth_y[0])
            r2s.append(estimate_params(completed_of(inc, completed), truth).r2_y)
        assert np.mean(rhos) > 0.87
        assert np.mean(r2s) > 0.85

    def test_same_values_on_any_stream(self, low_pop):
        # the plane is a function of the observed rows alone
        inc = _amputed(low_pop, MCAR, rep=9)
        first = _row(SoftImpute(), inc, make_stream(SeedSpec(76, 1)))
        second = _row(SoftImpute(), inc, make_stream(SeedSpec(76, 2)))
        np.testing.assert_array_equal(first, second)

    def test_too_few_observed_rows_rejected(self):
        # the thin SVD of two rows has no null vector to fix a plane
        x1, x2, truth = np.random.default_rng(2).normal(size=(3, 6))
        mask = np.arange(6) >= 2
        y = np.where(mask, np.nan, truth)
        inc = block_of_one(x1, x2, y, mask, truth)
        with pytest.raises(ValueError, match="at least 3 observed rows, got 2"):
            _row(SoftImpute(), inc)


class TestDispatch:
    def test_routes_match_direct_calls(self, low_pop):
        # pmm and softimpute fill the block from their public 1-D bodies
        inc = _amputed(low_pop, MCAR, rep=11)
        columns = (inc.x1[0], inc.x2[0], inc.y[0], inc.mask[0])
        for method, body in ((Pmm(), impute_pmm), (SoftImpute(), impute_softimpute)):
            routed = _row(method, inc, make_stream(SeedSpec(77, 0)))
            direct = body(*columns, make_stream(SeedSpec(77, 0)))
            np.testing.assert_array_equal(routed[inc.mask[0]], direct)
            np.testing.assert_array_equal(routed[~inc.mask[0]], inc.y[~inc.mask])

    def test_routes_forest(self, low_pop):
        from imputebench.forest import impute_forest

        inc = _amputed(low_pop, MCAR, rep=12)
        method = Forest(n_trees=5)
        routed = _row(method, inc, make_stream(SeedSpec(77, 1)))
        direct = impute_forest(
            inc.x1[0], inc.x2[0], inc.y[0], inc.mask[0], make_stream(SeedSpec(77, 1)), n_trees=5
        )
        np.testing.assert_array_equal(routed[inc.mask[0]], direct)

    def test_unknown_method_rejected(self, low_pop):
        class Bogus(ImputationMethod):
            label = "bogus"

        inc = _amputed(low_pop, MCAR, rep=13)
        with pytest.raises(ValueError):
            Bogus().impute_block(inc, [make_stream(SeedSpec(77, 2))])


class TestFarFromOrigin:
    # x1, x2 = 1e4 + N(0, 1): well conditioned once centred, while the
    # uncentred X'X has a condition number near 1e16
    @staticmethod
    def _far(n=1000, seed=81):
        gen = np.random.default_rng(seed)
        x1 = 1e4 + gen.normal(size=n)
        x2 = 1e4 + 0.5 * (x1 - 1e4) + gen.normal(size=n)
        truth = 1.0 + 0.8 * (x1 - 1e4) + 0.4 * (x2 - 1e4) + gen.normal(size=n)
        mask = gen.random(n) < 0.5
        return block_of_one(x1, x2, np.where(mask, np.nan, truth), mask, truth)

    def test_predict_matches_lstsq(self):
        inc = self._far()
        keep = ~inc.mask
        design = np.column_stack([np.ones(np.count_nonzero(keep)), inc.x1[keep], inc.x2[keep]])
        beta = np.linalg.lstsq(design, inc.y[keep], rcond=None)[0]
        want = beta[0] + beta[1] * inc.x1[inc.mask] + beta[2] * inc.x2[inc.mask]
        got = _row(Predict(), inc)[inc.mask[0]]
        # relative to the largest imputed value: single values pass near 0
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * np.abs(want).max())

    @pytest.mark.parametrize("method", [Draw(), Pmm()], ids=lambda m: m.label)
    def test_stochastic_methods_accept(self, method):
        inc = self._far()
        completed = _row(method, inc, make_stream(SeedSpec(82, 0)))
        imputed = completed[inc.mask[0]]
        assert np.all(np.isfinite(imputed))
        # the imputations keep the observed rows' spread about x
        assert np.std(imputed) == pytest.approx(np.std(inc.y[~inc.mask]), rel=0.2)


class TestCrossMethodInvariants:
    @pytest.mark.parametrize("method", [
        Predict(),
        Draw(),
        Pmm(),
        SoftImpute(),
        Forest(n_trees=5),
    ], ids=lambda m: m.label)
    def test_observed_values_bit_exact(self, low_pop, method):
        inc = _amputed(low_pop, MAR, rep=15)
        completed = method.impute_block(inc, [make_stream(SeedSpec(78, 0))])
        np.testing.assert_array_equal(completed[~inc.mask], inc.y[~inc.mask])
        assert completed.shape == inc.mask.shape
        assert not completed.flags.writeable
        assert np.all(np.isfinite(completed))

    def test_draw_mse_at_least_predict_mse(self, low_pop):
        predict_mses, draw_mses = [], []
        for rep in range(100):
            inc = _amputed(low_pop, MCAR, rep=rep, seed=79)
            p = _row(Predict(), inc)
            d = _row(Draw(), inc, make_stream(SeedSpec(80, rep)))
            predict_mses.append(np.mean((p - inc.truth_y[0]) ** 2))
            draw_mses.append(np.mean((d - inc.truth_y[0]) ** 2))
        assert np.mean(draw_mses) >= np.mean(predict_mses)
