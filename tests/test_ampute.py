import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

import imputebench.ampute as ampute_module
from imputebench.ampute import (
    PROP,
    CompletedDataset,
    IncompleteBlock,
    Mechanism,
    _logistic,
    _solve_shifts,
    ampute,
)
from imputebench.datagen import Dataset, PopulationSpec, generate_population
from imputebench.harness import (
    MECHANISMS,
    SIGNALS,
    ExperimentConfig,
    _assign_cells,
    _build_population,
    _masked_block,
)
from imputebench.imputers import Draw, Predict
from imputebench.stochastics import SeedSpec, make_stream, rep_streams

MCAR = Mechanism.MCAR
MAR = Mechanism.MAR_RIGHT


def _data(n, seed=40, stream_id=0):
    spec = PopulationSpec(r_squared=0.2, size=n)
    return generate_population(spec, make_stream(SeedSpec(seed, stream_id)))


def solve_shift(scores, prop):
    """The shift of one score vector, as the one-row block of _solve_shifts."""
    return float(_solve_shifts(np.asarray(scores, dtype=np.float64).reshape(1, -1), prop)[0])


class TestMissingnessSpec:
    # a cell's missingness is its Mechanism; the masked share is the constant PROP
    def test_defaults(self):
        assert MECHANISMS == (Mechanism.MCAR, Mechanism.MAR_RIGHT)
        assert PROP == 0.5

    def test_labels(self):
        assert Mechanism.MCAR.label == "MCAR"
        assert Mechanism.MAR_RIGHT.label == "MAR"


class TestIncompleteDataset:
    # a single dataset is the IncompleteBlock of one
    def test_counts_and_accessors(self):
        inc = ampute(_data(1000), MCAR, make_stream(SeedSpec(41, 0)))
        n_missing = np.count_nonzero(inc.mask)
        assert inc.mask.shape == (1, 1000)
        assert inc.y[~inc.mask].size == 1000 - n_missing
        assert np.all(np.isfinite(inc.y[~inc.mask]))
        assert inc.x1[inc.mask].size == n_missing

    def test_requires_nan_at_mask(self):
        with pytest.raises(ValueError):
            IncompleteBlock(
                x1=np.zeros((1, 2)),
                x2=np.zeros((1, 2)),
                y=np.array([[1.0, 2.0]]),
                mask=np.array([[True, False]]),
                truth_y=np.array([[1.0, 2.0]]),
            )

    def test_requires_finite_off_mask(self):
        with pytest.raises(ValueError):
            IncompleteBlock(
                x1=np.zeros((1, 2)),
                x2=np.zeros((1, 2)),
                y=np.array([[np.nan, np.nan]]),
                mask=np.array([[True, False]]),
                truth_y=np.array([[1.0, 2.0]]),
            )

    def test_requires_equal_lengths(self):
        with pytest.raises(ValueError):
            IncompleteBlock(
                x1=np.zeros((1, 3)),
                x2=np.zeros((1, 2)),
                y=np.array([[np.nan, 2.0]]),
                mask=np.array([[True, False]]),
                truth_y=np.array([[1.0, 2.0]]),
            )

    @pytest.mark.parametrize("column", ["x1", "x2", "y", "truth_y"])
    def test_requires_the_mask_shape(self, column):
        # ten values as (2, 5) against a one-row mask of 10: equal sizes used
        # to pass, and imputing then failed on numpy's boolean index
        gen = np.random.default_rng(53)
        truth = gen.normal(size=(1, 10))
        mask = np.arange(10)[None, :] % 3 == 0
        cols = dict(x1=gen.normal(size=(1, 10)), x2=gen.normal(size=(1, 10)),
                    y=np.where(mask, np.nan, truth), mask=mask, truth_y=truth)
        IncompleteBlock(**cols)
        cols[column] = cols[column].reshape(2, 5)
        with pytest.raises(ValueError, match=f"column {column} has shape \\(2, 5\\)"):
            IncompleteBlock(**cols)

    def test_requires_a_two_dimensional_mask(self):
        cols = {name: np.zeros(4) for name in ("x1", "x2", "y", "truth_y")}
        with pytest.raises(ValueError, match="mask must be a \\(k, n\\) block"):
            IncompleteBlock(mask=np.zeros(4, dtype=bool), **cols)


class TestCompletedDataset:
    # a method's completion is the filled y block
    def test_from_imputation_fills_only_mask(self):
        inc = ampute(_data(100), MCAR, make_stream(SeedSpec(42, 0)))
        y = inc.filled(np.zeros(np.count_nonzero(inc.mask)))
        np.testing.assert_array_equal(y[~inc.mask], inc.y[~inc.mask])
        assert np.all(y[inc.mask] == 0.0)
        assert not y.flags.writeable

    def test_wrong_value_count_rejected(self):
        inc = ampute(_data(100), MCAR, make_stream(SeedSpec(42, 1)))
        with pytest.raises(ValueError):
            inc.filled(np.zeros(np.count_nonzero(inc.mask) + 1))

    def test_mask_length_checked(self):
        data = Dataset(np.zeros(3), np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            CompletedDataset(data=data, imputed_mask=np.zeros(4, dtype=bool), method=None)


class TestSolveShift:
    def test_symmetric_scores_give_zero(self):
        scores = np.concatenate([np.linspace(-3, 3, 1001)])
        assert abs(solve_shift(scores, 0.5)) < 1e-3

    def test_calibration_error_within_contract(self):
        gen = np.random.default_rng(1)
        scores = gen.normal(size=5000)
        b = solve_shift(scores, 0.25)
        assert abs(np.mean(expit(scores + b)) - 0.25) < 1e-6

    def test_monotone_in_prop(self):
        gen = np.random.default_rng(2)
        scores = gen.normal(size=2000)
        shifts = [solve_shift(scores, p) for p in (0.2, 0.5, 0.8)]
        assert shifts[0] < shifts[1] < shifts[2]

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            solve_shift(np.array([0.0, np.nan]), 0.5)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            solve_shift(np.array([]), 0.5)

    def test_rejects_bad_prop(self):
        with pytest.raises(ValueError):
            solve_shift(np.zeros(5), 1.0)

    @pytest.mark.parametrize("scores", [[1e17], [1e17, -1e17]], ids=["one", "two"])
    def test_uncalibrated_shift_raises(self, scores):
        # float spacing at 1e17 leaves no shift within 1e-8 of the target
        with pytest.raises(ValueError, match="gap"):
            solve_shift(np.array(scores), 0.3)

    @pytest.mark.parametrize("big", [1e3, 1e300, np.finfo(float).max])
    def test_huge_scores_warn_nothing(self, big):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert solve_shift(np.array([big, -big]), 0.5) == 0.0
            b = solve_shift(np.array([-big, 0.0, 0.0, 0.0]), 0.5)
            assert abs(np.mean(expit(np.array([-big, 0.0, 0.0, 0.0]) + b)) - 0.5) < 1e-6
            if big == np.finfo(float).max:
                # -big plus a shift near -big overflows; float spacing at big
                # leaves no shift that calibrates, and that is the error
                with pytest.raises(ValueError, match="gap"):
                    solve_shift(np.array([big, -big]), 0.3)


# --- reference: the rule solve_shift must reproduce bit for bit, on one row

def _reference_solve_shift(scores, prop: float) -> float:
    s = np.asarray(scores, dtype=np.float64)
    logit = math.log(prop / (1.0 - prop))
    low, high = logit - np.max(s), logit - np.min(s)
    b = np.float64(0.0)
    for _ in range(200):
        with np.errstate(over="ignore"):
            p = _logistic(s + b)
        g = np.mean(p) - prop
        if abs(g) < 1e-8:
            return b
        if g < 0:
            low = max(low, b)
        else:
            high = min(high, b)
        with np.errstate(divide="ignore", over="ignore"):
            step = b - g / np.mean(p * (1.0 - p))
        b = step if low < step < high else 0.5 * low + 0.5 * high
    raise ValueError(f"no shift calibrates the scores to prop {prop}: gap {g:.3g} remains")


def _bisection_shift(scores, prop: float) -> float:
    """Plain bisection on an expanding bracket: a second rule within the tolerance."""
    s = np.asarray(scores, dtype=np.float64)

    def gap(b: float) -> float:
        return float(np.mean(_logistic(s + b))) - prop

    lo, hi = -1.0, 1.0
    while gap(lo) > 0:
        lo *= 2.0
    while gap(hi) < 0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        g = gap(mid)
        if abs(g) < 1e-8:
            return mid
        if g < 0:
            lo = mid
        else:
            hi = mid
    raise ValueError(f"no shift calibrates the scores to prop {prop}: gap {g:.3g} remains")


def _outcome(solve, scores, prop):
    """(shift, sign bit) of a solve, or the message it raised."""
    try:
        shift = solve(scores, prop)
    except ValueError as exc:
        return str(exc)
    return shift, math.copysign(1.0, shift)


@st.composite
def _score_vectors(draw):
    n = draw(st.integers(1, 2000))
    family = draw(st.sampled_from(["normal", "heavy", "tied", "1e3", "1e17"]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if family == "heavy":
        return gen.standard_t(2, size=n)
    if family == "tied":
        return np.round(gen.normal(size=n))
    scores = gen.normal(size=n)
    if family in ("1e3", "1e17"):
        far = gen.random(n) < draw(st.floats(0.0, 1.0))
        scores[far] = float(family) * gen.choice([-1.0, 1.0], size=int(far.sum()))
    return scores


@pytest.fixture(scope="module")
def ci_mar_scores():
    """The 200 MAR score vectors of table1's predict cells at ci scale, seed 123."""
    cfg = ExperimentConfig(pop_size=100_000, base_seed=123)
    captured = []

    def capture(scores, prop):
        captured.extend(np.array(row) for row in scores)
        return _solve_shifts(scores, prop)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ampute_module, "_solve_shifts", capture)
        for cell in _assign_cells((Predict(), Draw())):
            if cell.method.label == "predict" and cell.mech == MAR:
                pop = _build_population(cfg, cell.level)
                for t in range(1, 101):
                    sampling, amputation, _ = rep_streams(cfg.base_seed, cell.cell_id, t, t)
                    _masked_block(cfg, pop, cell.mech, sampling, amputation)
    assert len(captured) == 200
    return captured


class TestSolveShiftMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(scores=_score_vectors(), prop=st.floats(0.01, 0.99))
    def test_random_scores(self, scores, prop):
        assert _outcome(solve_shift, scores, prop) == _outcome(
            _reference_solve_shift, scores, prop
        )

    def test_ci_mar_scores(self, ci_mar_scores):
        for scores in ci_mar_scores:
            assert _outcome(solve_shift, scores, PROP) == _outcome(
                _reference_solve_shift, scores, PROP
            )

    def test_at_most_three_logistic_passes(self, ci_mar_scores, monkeypatch):
        # Newton from 0 takes 2-3 passes on these vectors; _bisection_shift
        # takes 16-27
        calls = []

        def counted(x):
            calls.append(1)
            return _logistic(x)

        monkeypatch.setattr(ampute_module, "_logistic", counted)
        for scores in ci_mar_scores:
            calls.clear()
            solve_shift(scores, PROP)
            assert len(calls) <= 3

    def test_a_block_takes_its_slowest_rows_passes(self, ci_mar_scores, monkeypatch):
        # a 16-replication block makes one _logistic pass per round of its
        # slowest row, not one per replication and round
        calls = []

        def counted(x):
            calls.append(1)
            return _logistic(x)

        monkeypatch.setattr(ampute_module, "_logistic", counted)
        for first in range(0, len(ci_mar_scores), 16):
            block = np.array(ci_mar_scores[first:first + 16])
            rounds = []
            for scores in block:
                calls.clear()
                solve_shift(scores, PROP)
                rounds.append(len(calls))
            calls.clear()
            _solve_shifts(block, PROP)
            assert len(calls) <= max(rounds) <= 10


class TestMasksMatchTheBisection:
    def test_ci_table1_mar_masks(self, monkeypatch):
        # the two rules' shifts differ by up to 1e-7, within the tolerance;
        # no replication's mask moves, so no table number does
        cfg = ExperimentConfig(t_rep=20, pop_size=100_000)

        def bisected(scores, prop):
            return np.array([_bisection_shift(row, prop) for row in scores])

        for level in range(len(SIGNALS)):
            pop = _build_population(cfg, level)
            for cell in _assign_cells((Predict(), Draw())):
                if cell.level != level or cell.mech != MAR:
                    continue
                masks = []
                for solve in (_solve_shifts, bisected):
                    monkeypatch.setattr(ampute_module, "_solve_shifts", solve)
                    sampling, amputation, _ = rep_streams(cfg.base_seed, cell.cell_id, 1, cfg.t_rep)
                    masks.append(_masked_block(cfg, pop, MAR, sampling, amputation).mask)
                np.testing.assert_array_equal(*masks)


class TestLogistic:
    def test_within_rounding_of_libm_formula(self):
        # np.exp and libm exp differ by up to one ulp; the add and the
        # divide each round once on both routes, so 3 eps bounds the gap
        x = np.linspace(-709.0, 745.0, 290_801)
        ref = np.array([1.0 / (1.0 + math.exp(-v)) for v in x])
        got = _logistic(x)
        assert np.all(np.abs(got - ref) <= 3 * np.finfo(np.float64).eps * ref)

    def test_saturates_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _logistic(np.array([-1e300, -1e3, 1e3, 1e300]))
        np.testing.assert_array_equal(got, [0.0, 0.0, 1.0, 1.0])


class TestAmpute:
    def test_mcar_masked_count_binomial(self):
        # n=1000, prop 0.5: count within 500 +- 3*sqrt(250) nearly always
        data = _data(1000)
        violations = 0
        for rep in range(200):
            inc = ampute(data, MCAR, make_stream(SeedSpec(43, rep)))
            if not 453 <= np.count_nonzero(inc.mask) <= 547:
                violations += 1
        assert violations <= 4  # 3-sigma band holds in >= 99% of runs

    @pytest.mark.parametrize("spec", [MCAR, MAR], ids=["mcar", "mar"])
    def test_proportion_converges(self, spec):
        data = _data(100_000)
        inc = ampute(data, spec, make_stream(SeedSpec(44, 0)))
        assert abs(np.count_nonzero(inc.mask) / len(data) - 0.5) < 0.01

    def test_mar_censors_right_tail(self):
        data = _data(100_000)
        inc = ampute(data, MAR, make_stream(SeedSpec(45, 0)))
        p_high = inc.mask[0][data.x1 > 0].mean()
        p_low = inc.mask[0][data.x1 <= 0].mean()
        assert p_high > p_low

    def test_mask_correlation_with_x1(self):
        data = _data(100_000)
        mcar_mask = ampute(data, MCAR, make_stream(SeedSpec(46, 0))).mask[0]
        mar_mask = ampute(data, MAR, make_stream(SeedSpec(46, 1))).mask[0]
        assert abs(np.corrcoef(mcar_mask, data.x1)[0, 1]) < 0.02
        assert np.corrcoef(mar_mask, data.x1)[0, 1] > 0.3

    def test_extreme_score_warns_nothing(self):
        # one low outlier among 10^6 rows standardizes to a score near -1e3
        x1 = np.zeros(1_000_000)
        x1[0] = -1.0
        data = Dataset(x1, np.zeros_like(x1), np.zeros_like(x1))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            inc = ampute(data, MAR, make_stream(SeedSpec(47, 0)))
        assert not inc.mask[0, 0]

    @pytest.mark.parametrize("scale", [1e160, 1e200])
    def test_large_magnitude_x1_standardizes(self, scale):
        # the squares of x1's deviations overflow; the suite turns that warning
        # into an error, and an overflowed sd used to read as a constant x1
        x1 = 1.0 + 0.1 * np.random.default_rng(51).standard_normal(50)
        big = ampute(Dataset(scale * x1, x1, x1), MAR, make_stream(SeedSpec(51, 0)))
        unit = ampute(Dataset(x1, x1, x1), MAR, make_stream(SeedSpec(51, 0)))
        np.testing.assert_array_equal(big.mask, unit.mask)

    @pytest.mark.parametrize("scale", [1e306, 1e307])
    def test_x1_whose_sum_overflows_standardizes(self, scale):
        # at 1e307 the sum of 50 values overflows before centring; it used to
        # warn, or without the warning filter refuse x1 as constant
        x1 = 1.0 + 0.1 * np.random.default_rng(52).standard_normal(50)
        big = ampute(Dataset(scale * x1, x1, x1), MAR, make_stream(SeedSpec(52, 0)))
        unit = ampute(Dataset(x1, x1, x1), MAR, make_stream(SeedSpec(52, 0)))
        np.testing.assert_array_equal(big.mask, unit.mask)

    def test_constant_score_rejected(self):
        # x1 is constant while x2 varies: the MAR score reads x1 alone
        data = Dataset(np.ones(100), np.arange(100.0), np.zeros(100))
        with pytest.raises(ValueError):
            ampute(data, MAR, make_stream(SeedSpec(48, 0)))

    def test_predictors_and_truth_preserved(self):
        data = _data(5000)
        inc = ampute(data, MAR, make_stream(SeedSpec(49, 0)))
        np.testing.assert_array_equal(inc.x1[0], data.x1)
        np.testing.assert_array_equal(inc.x2[0], data.x2)
        np.testing.assert_array_equal(inc.truth_y[0], data.y)
        np.testing.assert_array_equal(inc.y[~inc.mask], data.y[~inc.mask[0]])

    def test_deterministic(self):
        data = _data(2000)
        a = ampute(data, MAR, make_stream(SeedSpec(50, 0)))
        b = ampute(data, MAR, make_stream(SeedSpec(50, 0)))
        np.testing.assert_array_equal(a.mask, b.mask)
