"""The replication path: direct ufunc reductions, generators built on first draw, no LAPACK.

A table1 replication calls ``np.add.reduce``, ``np.count_nonzero`` and
``ndarray.all`` where numpy's ``mean``/``all``/``std`` wrappers would call
the same reductions through several Python layers. These tests check that
the direct forms give the wrappers' bits, that every block kernel (mask
and shift, predict and draw, estimate, moment algebra) on k stacked rows gives
each row's own bits or one row's own error, that the scalar code the
kernels replaced gives the same bits, that the wrappers stay off the
path, that a replication builds a generator only for the streams it
draws from, that a table1 cell keys its streams without numpy's
SeedSequence and gets the same bytes, and that the table1 cells and pmm
call no numpy.linalg function, whose bits can depend on the BLAS thread
count.
"""

import math
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import imputebench.ampute as ampute_module
import imputebench.harness as harness_module
from conftest import block_of_one
from imputebench.ampute import (
    CompletedDataset,
    IncompleteBlock,
    Mechanism,
    _ampute_block,
    _solve_shifts,
    ampute,
)
from imputebench.datagen import _COLLINEAR_FLOOR, Dataset, ParamSet, draw_sample, moment_params
from imputebench.downstream import _estimate_rows, _quantile_rows, estimate_params
from imputebench.harness import (
    ExperimentConfig,
    _assign_cells,
    _block_params,
    _build_population,
    _cell_reps,
)
from imputebench.imputers import Draw, Pmm, Predict
from imputebench.linmodel import fit_ols, predict
from imputebench.stochastics import Purpose, SeedSpec, make_stream, substream_id

MAR = Mechanism.MAR_RIGHT

# magnitudes 1e-150 to 1e150 of either sign, and both zeros; the array
# strategy fills most of a long array with one value, which makes ties
_ELEMENTS = (
    st.floats(1e-150, 1e150)
    | st.floats(-1e150, -1e-150)
    | st.sampled_from([0.0, -0.0, 1.0, -1.0])
)
_COLUMNS = arrays(np.float64, st.integers(1, 3000), elements=_ELEMENTS)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def _outcome(fn):
    """The bytes of fn's result, or the message of the ValueError it raised."""
    try:
        with np.errstate(all="ignore"):
            return _bits(fn())
    except ValueError as exc:
        return str(exc)


@settings(deadline=None)
@given(x=_COLUMNS)
def test_add_reduce_over_size_is_np_mean(x):
    assert _bits(np.add.reduce(x) / x.size) == _bits(np.mean(x))


@settings(deadline=None)
@given(x=_COLUMNS)
def test_one_pass_score_is_centred_over_np_std(x):
    c = x - np.add.reduce(x) / x.size
    sd = math.sqrt(np.add.reduce(c * c) / x.size)
    if sd == 0.0:
        return
    assert _bits(c / sd) == _bits((x - np.mean(x)) / float(np.std(x)))


@settings(deadline=None, max_examples=50)
@given(x1=arrays(np.float64, st.integers(2, 3000), elements=_ELEMENTS))
def test_ampute_mar_score_is_centred_over_np_std(x1):
    with np.errstate(all="ignore"):
        sd = float(np.std(x1))
    if sd == 0.0:
        return
    seen = []

    def capture(scores, prop):
        seen.extend(np.array(row) for row in scores)
        raise ValueError("captured")

    with pytest.MonkeyPatch.context() as mp, pytest.raises(ValueError, match="captured"):
        mp.setattr(ampute_module, "_solve_shifts", capture)
        ampute(Dataset(x1, x1, x1), MAR, make_stream(SeedSpec(0, 0)))
    assert _bits(seen[0]) == _bits((x1 - np.mean(x1)) / sd)


def _wrapper_estimate_params(completed, truth) -> ParamSet:
    """estimate_params as written with numpy's mean wrappers: the reference."""
    data = completed.data
    n = len(data)
    if n != len(truth):
        raise ValueError("completed and truth datasets must be row-aligned")
    if n <= 3:
        raise ValueError(f"need more than 3 rows, got {n}")
    for name, col in zip(("x1", "x2", "y"), (data.x1, data.x2, data.y)):
        if col.min() == col.max():
            raise ValueError(f"column {name} is constant; downstream parameters undefined")
    ydot = data.y
    mu = float(np.mean(ydot))
    centred = [data.x1 - data.x1.mean(), data.x2 - data.x2.mean(), ydot - mu]
    cov = np.empty((3, 3))
    for i, j in combinations_with_replacement(range(3), 2):
        cov[i, j] = cov[j, i] = np.add.reduce(centred[i] * centred[j]) / (n - 1)
    p90 = 100.0 * float(np.mean(ydot > _quantile_rows(truth.y[None, :], 0.9)[0]))
    sq_err = (truth.y - ydot) ** 2
    mse_full = float(np.mean(sq_err))
    n_missing = int(np.count_nonzero(completed.imputed_mask))
    mse_missing = float(np.mean(sq_err[completed.imputed_mask])) if n_missing else 0.0
    return ParamSet(
        mu=mu, p90=p90, mse_full=mse_full, mse_missing=mse_missing, **moment_params(cov)
    )


@st.composite
def _completed_and_truth(draw):
    n = draw(st.integers(1, 3000))
    cols = [draw(arrays(np.float64, n, elements=_ELEMENTS)) for _ in range(4)]
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = gen.random(n) < draw(st.floats(0.0, 1.0))
    x1, x2, y, truth_y = cols
    completed = CompletedDataset(data=Dataset(x1, x2, y), imputed_mask=mask, method=None)
    return completed, Dataset(x1, x2, truth_y)


@settings(deadline=None)
@given(pair=_completed_and_truth())
def test_estimate_params_equals_wrapper_reference(pair):
    completed, truth = pair
    got = _outcome(lambda: estimate_params(completed, truth).as_array())
    want = _outcome(lambda: _wrapper_estimate_params(completed, truth).as_array())
    assert got == want


@settings(deadline=None, max_examples=30)
@given(
    x1=arrays(np.float64, st.integers(4, 300), elements=st.floats(-1e3, 1e3)),
    seed=st.integers(0, 2**32 - 1),
)
def test_estimate_params_equals_wrapper_reference_on_regression_data(x1, seed):
    gen = np.random.default_rng(seed)
    n = x1.size
    x2 = 0.5 * x1 + gen.normal(size=n)
    truth_y = x1 + x2 + gen.normal(size=n)
    mask = gen.random(n) < 0.5
    y = np.where(mask, truth_y + gen.normal(size=n), truth_y)
    completed = CompletedDataset(data=Dataset(x1, x2, y), imputed_mask=mask, method=None)
    truth = Dataset(x1, x2, truth_y)
    got = _outcome(lambda: estimate_params(completed, truth).as_array())
    want = _outcome(lambda: _wrapper_estimate_params(completed, truth).as_array())
    assert got == want


# ---------------------------------------------------------------------
# blocks: k stacked rows give each row's own bits
# ---------------------------------------------------------------------


@settings(deadline=None)
@given(block=arrays(np.float64, st.tuples(st.integers(1, 20), st.integers(1, 3000)), elements=_ELEMENTS))
def test_row_sums_of_a_block_are_each_rows_own_sum(block):
    # why the block path moves no bit: np.add.reduce along axis 1 of a
    # C-contiguous block runs the pairwise sum of each row alone
    got = np.add.reduce(block, axis=1)
    assert _bits(got) == b"".join(_bits(np.add.reduce(row)) for row in block)
    assert _bits(np.add.reduce(block, axis=1, keepdims=True)) == _bits(got)


@st.composite
def _stacked_rows(draw):
    k = draw(st.integers(1, 5))
    n = draw(st.integers(1, 1500))
    cols = [draw(arrays(np.float64, (k, n), elements=_ELEMENTS)) for _ in range(4)]
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = gen.random((k, n)) < draw(st.floats(0.0, 1.0))
    return cols, mask


@settings(deadline=None)
@given(block=_stacked_rows())
def test_block_estimator_equals_estimate_params_per_row(block):
    (x1, x2, y, truth_y), mask = block
    rows = []
    for r in range(y.shape[0]):
        completed = CompletedDataset(data=Dataset(x1[r], x2[r], y[r]), imputed_mask=mask[r], method=None)
        truth = Dataset(x1[r], x2[r], truth_y[r])
        rows.append(_outcome(lambda: estimate_params(completed, truth).as_array()))
    got = _outcome(lambda: _estimate_rows(x1, x2, y, truth_y, mask))
    _same_rows_or_a_rows_error(got, rows)  # a failing block fails as one of its rows does alone


@pytest.mark.parametrize("mechanism", [Mechanism.MCAR, Mechanism.MAR_RIGHT])
@settings(deadline=None, max_examples=25)
@given(
    x1=arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(2, 1500)),
              elements=st.floats(-1e3, 1e3)),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_masks_equal_ampute_per_row(mechanism, x1, seed):
    streams = [make_stream(SeedSpec(seed, r)) for r in range(x1.shape[0])]
    u = np.array([make_stream(SeedSpec(seed, r)).generator.random(x1.shape[1]) for r in range(x1.shape[0])])
    rows = [
        _outcome(lambda: ampute(Dataset(row, row, row), mechanism, stream).mask)
        for row, stream in zip(x1, streams)
    ]
    got = _outcome(lambda: _ampute_block(x1, x1, x1, mechanism, u).mask)
    _same_rows_or_a_rows_error(got, rows)


def _same_rows_or_a_rows_error(got, rows):
    """A block's outcome against its rows' own: every row's bits, or one row's error."""
    if all(isinstance(row, bytes) for row in rows):
        assert got == b"".join(rows)
    else:
        assert got in [row for row in rows if isinstance(row, str)]


@st.composite
def _design_rows(draw):
    """k rows of (x1, x2, y) and keep masks: ordinary, collinear, constant, huge or far off."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(1, 300))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x1, x2, y = gen.normal(size=(3, k, n))
    for r in range(k):
        family = draw(st.sampled_from(["normal", "collinear", "constant", "1e160", "1e4"]))
        if family == "collinear":
            x2[r] = 2.0 * x1[r]
        elif family == "constant":
            x2[r] = 3.0
        elif family == "1e160":
            x1[r] *= 1e160
        elif family == "1e4":
            x1[r] += 1e4
    keep = gen.random((k, n)) < draw(st.floats(0.0, 1.0))
    return x1, x2, y, keep


def _parent_imputation(method, x1, x2, y, mask, stream):
    """predict or draw of one dataset as a scalar fit and fill: the block imputers' reference."""
    keep = ~mask
    fit = fit_ols(x1[keep], x2[keep], y[keep])
    values = predict(fit.coefficients, x1[mask], x2[mask])
    if isinstance(method, Draw):
        values = values + math.sqrt(fit.residual_variance) * stream.generator.standard_normal(
            int(mask.sum()))
    return block_of_one(x1, x2, np.where(mask, np.nan, y), mask, y).filled(values)[0]


@settings(deadline=None)
@given(rows=_design_rows(), method=st.sampled_from([Predict(), Draw()]))
def test_block_imputers_equal_a_scalar_imputation_per_row(rows, method):
    x1, x2, y, keep = rows
    mask = ~keep
    streams = [make_stream(SeedSpec(11, r)) for r in range(y.shape[0])]
    want = [
        _outcome(lambda: _parent_imputation(method, x1[r], x2[r], y[r], mask[r], streams[r]))
        for r in range(y.shape[0])
    ]
    streams = [make_stream(SeedSpec(11, r)) for r in range(y.shape[0])]
    holed = np.where(mask, np.nan, y)
    got = _outcome(lambda: method.impute_block(IncompleteBlock(x1, x2, holed, mask, y), streams))
    _same_rows_or_a_rows_error(got, want)


@st.composite
def _score_rows(draw):
    """k equally long score rows: normal, heavy-tailed, tied, or partly at +-1e3, 1e17 or 1e300."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(1, 1000))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(k):
        family = draw(st.sampled_from(["normal", "heavy", "tied", "1e3", "1e17", "1e300"]))
        if family == "heavy":
            rows.append(gen.standard_t(2, size=n))
            continue
        scores = gen.normal(size=n)
        if family == "tied":
            scores = np.round(scores)
        elif family != "normal":
            far = gen.random(n) < draw(st.floats(0.0, 1.0))
            scores[far] = float(family) * gen.choice([-1.0, 1.0], size=int(far.sum()))
        rows.append(scores)
    return np.array(rows)


@settings(deadline=None, max_examples=150)
@given(scores=_score_rows(), prop=st.floats(0.01, 0.99))
def test_block_shifts_equal_solve_shift_per_row(scores, prop):
    rows = [_outcome(lambda: _solve_shifts(row[None, :], prop)) for row in scores]
    _same_rows_or_a_rows_error(_outcome(lambda: _solve_shifts(scores, prop)), rows)


def _scalar_moment_params(cov):
    """moment_params on Python floats, one matrix at a time: the reference of the stacked form."""
    c = [[float(v) for v in row] for row in cov]

    def regression(response, first, second, name):
        s11, s12, s22 = c[first][first], c[first][second], c[second][second]
        c1, c2 = c[first][response], c[second][response]
        det = s11 * s22 - s12 * s12
        if not math.isfinite(det):
            raise ValueError(f"regression {name}: the predictors' determinant is NaN or an overflow")
        if det <= _COLLINEAR_FLOOR * s11 * s22:
            raise ValueError(f"regression {name}: the predictors are collinear")
        b1 = (s22 * c1 - s12 * c2) / det
        b2 = (s11 * c2 - s12 * c1) / det
        return b1, min(max((b1 * c1 + b2 * c2) / c[response][response], 0.0), 1.0)

    gamma, r2_y = regression(2, 0, 1, "y ~ x1 + x2")
    delta, r2_x = regression(0, 2, 1, "x1 ~ y + x2")
    rho = c[0][2] / math.sqrt(c[0][0] * c[2][2])
    return [math.sqrt(c[2][2]), rho, gamma, r2_y, delta, r2_x]


_FIELDS6 = ("sigma", "rho", "gamma", "r2_y", "delta", "r2_x")
_OFF_DIAGONAL = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, math.nan])
_DIAGONAL = st.floats(1e-3, 1e3) | st.sampled_from([math.inf, math.nan])


@st.composite
def _covariances(draw):
    """k symmetric 3x3 matrices: positive, infinite or NaN variances, signed zero covariances."""
    covs = np.empty((draw(st.integers(1, 5)), 3, 3))
    for cov in covs:
        for i in range(3):
            cov[i, i] = draw(_DIAGONAL)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            cov[i, j] = cov[j, i] = draw(_OFF_DIAGONAL)
    return covs


@example(covs=np.array([[[1.0, 0.0, -0.0], [0.0, 1.0, -0.0], [-0.0, -0.0, 1.0]]]))  # r2 -0.0
@example(covs=np.array([[[1.0, 0.0, math.nan], [0.0, 1.0, 0.5], [math.nan, 0.5, 1.0]]]))  # NaN
@settings(deadline=None)
@given(covs=_covariances())
def test_stacked_moment_params_equal_scalar_per_matrix(covs):
    # a NaN's sign bit differs between numpy scalars and arrays and means
    # nothing here, so every NaN is compared as the one NaN; -0.0 is kept
    def fields6(cov):
        fields = moment_params(cov)
        return np.array([fields[name] for name in _FIELDS6]).T

    def canonical(values):
        values = np.asarray(values, dtype=np.float64)
        return np.where(np.isnan(values), math.nan, values)

    rows = [_outcome(lambda: canonical(_scalar_moment_params(cov))) for cov in covs]
    _same_rows_or_a_rows_error(_outcome(lambda: canonical(fields6(covs))), rows)
    for cov, row in zip(covs, rows):  # and one matrix alone gives its row
        assert _outcome(lambda: canonical(fields6(cov))) == row


def test_clipped_r2_keeps_negative_zero_and_nan():
    r2_y = moment_params(np.array([[1.0, 0.0, -0.0], [0.0, 1.0, -0.0], [-0.0, -0.0, 1.0]]))["r2_y"]
    assert r2_y == 0.0 and math.copysign(1.0, r2_y) == -1.0
    # both determinants are finite, so the NaN reaches the clip and passes it
    fields = moment_params(np.array([[1.0, 0.0, math.nan], [0.0, 1.0, 0.5], [math.nan, 0.5, 1.0]]))
    assert math.isnan(fields["r2_y"]) and math.isnan(fields["r2_x"])
    with pytest.raises(ValueError, match=r"regression y ~ x1 \+ x2: .*NaN or an overflow"):
        moment_params(np.full((3, 3), math.nan))


# ---------------------------------------------------------------------
# one replication of each table1 cell: the one-replication block
# ---------------------------------------------------------------------

_CFG = ExperimentConfig(n_sample=300, t_rep=1, base_seed=123, pop_size=5_000)
_TABLE1_CELLS = [c for c in _assign_cells((Predict(), Draw())) if c.level == 0]


def _cell_id(cell):
    return f"{cell.method.label}-{cell.mech.label}"


def _counting(monkeypatch, owner, name, calls):
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("cell", _TABLE1_CELLS, ids=_cell_id)
def test_replication_calls_no_numpy_reduction_wrapper(monkeypatch, cell):
    pop = _build_population(_CFG, cell.level)
    calls = {}
    for name in ("mean", "all", "any", "std"):
        _counting(monkeypatch, np, name, calls)
    _block_params(pop, cell, _CFG, 1, 1)
    assert calls == {}


@pytest.mark.parametrize("cell", _TABLE1_CELLS, ids=_cell_id)
def test_replication_builds_a_generator_per_drawn_stream(monkeypatch, cell):
    # sampling and amputation always draw; only draw's imputation stream does
    pop = _build_population(_CFG, cell.level)
    calls = {}
    _counting(monkeypatch, np.random, "Generator", calls)
    _block_params(pop, cell, _CFG, 1, 1)
    assert calls == {"Generator": 3 if cell.method.label == "draw" else 2}


class _SeedSequenceStream:
    """A stream keyed by numpy's SeedSequence itself: the stream contract's oracle."""

    def __init__(self, base_seed, stream_id):
        seq = np.random.SeedSequence([base_seed, stream_id])
        self.generator = np.random.Generator(np.random.Philox(seq))


def _seed_sequence_rep_streams(base_seed, cell, first, last):
    return tuple(
        [_SeedSequenceStream(base_seed, substream_id(cell, t, p)) for t in range(first, last + 1)]
        for p in (Purpose.SAMPLING, Purpose.AMPUTATION, Purpose.IMPUTATION)
    )


def test_table1_cell_builds_no_seed_sequence(monkeypatch):
    # a ci-scale draw cell, population included, keyed by the key kernel
    # alone gives the reps of the same cell keyed by SeedSequence
    cfg = ExperimentConfig(pop_size=100_000, t_rep=20, base_seed=123)
    (cell,) = [c for c in _assign_cells((Predict(), Draw())) if c.cell_id == 4]
    assert (cell.level, cell.method.label, cell.mech) == (1, "draw", MAR)
    with monkeypatch.context() as patch:
        patch.setattr(harness_module, "rep_streams", _seed_sequence_rep_streams)
        patch.setattr(
            harness_module, "make_stream", lambda s: _SeedSequenceStream(s.base_seed, s.stream_id)
        )
        expected = _cell_reps(_build_population(cfg, cell.level), cell, cfg)

    def refused(*args, **kwargs):
        raise AssertionError("np.random.SeedSequence called")

    monkeypatch.setattr(np.random, "SeedSequence", refused)
    got = _cell_reps(_build_population(cfg, cell.level), cell, cfg)
    assert got.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------
# no LAPACK on the regression imputers' path
# ---------------------------------------------------------------------


def _forbid_linalg(monkeypatch):
    """Make every public numpy.linalg function raise when called."""
    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"numpy.linalg.{name} called")
        return call

    for name in dir(np.linalg):
        obj = getattr(np.linalg, name)
        if not name.startswith("_") and callable(obj) and not isinstance(obj, type):  # not LinAlgError
            monkeypatch.setattr(np.linalg, name, forbidden(name))


def test_table1_cells_and_pmm_call_no_numpy_linalg(monkeypatch):
    # a LAPACK or BLAS solve can change its bits with the thread count;
    # the fit is moment sums and a closed-form 2x2 solve instead
    pop = _build_population(_CFG, 0)
    inc = ampute(draw_sample(pop, 300, make_stream(SeedSpec(5, 0))), MAR, make_stream(SeedSpec(5, 1)))
    _forbid_linalg(monkeypatch)
    with pytest.raises(AssertionError, match="numpy.linalg.solve called"):
        np.linalg.solve(np.eye(2), np.ones(2))
    for cell in _TABLE1_CELLS:
        _block_params(pop, cell, _CFG, 1, 1)
    Pmm().impute_block(inc, [make_stream(SeedSpec(5, 2))])
