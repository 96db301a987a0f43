"""End-to-end acceptance checks against the expected result tables.

Scale comes from IMPUTEBENCH_ACCEPTANCE_SCALE: "ci" (default) runs 20
replications on a 10^5 population with every tolerance doubled; "desk"
runs the full 200 replications on 10^6 rows at the stated tolerances.
Each test carries an `acceptance` marker; the terminal summary prints
one PASS/FAIL line per criterion.
"""

import os

import numpy as np
import pytest

from imputebench.ampute import Mechanism, ampute
from imputebench.datagen import (
    Dataset,
    PopulationSpec,
    draw_sample,
    generate_population,
    ground_truth,
)
from imputebench.downstream import ParamSet, decompose_mse, estimate_params
from imputebench.harness import (
    ExperimentConfig,
    format_table,
    run_table1,
    run_table2,
)
from imputebench.imputers import (
    Draw,
    Forest,
    Pmm,
    Predict,
    SoftImpute,
)
from imputebench.linmodel import fit_ols, predict
from imputebench.stochastics import SeedSpec, make_stream

from als_reference import als_matrix_complete
from conftest import block_of_one, completed_of

_SCALES = {"ci": (20, 100_000, 2.0), "desk": (200, 1_000_000, 1.0)}
_scale_name = os.environ.get("IMPUTEBENCH_ACCEPTANCE_SCALE", "ci")
if _scale_name not in _SCALES:
    raise RuntimeError(
        f"IMPUTEBENCH_ACCEPTANCE_SCALE must be one of {sorted(_SCALES)}, "
        f"got {_scale_name!r}"
    )
T_REP, POP, TOL = _SCALES[_scale_name]

CFG = ExperimentConfig(t_rep=T_REP, pop_size=POP)
FIELDS = ParamSet.field_names()

# reference values for the mean over replications of each cell, in field
# order mu, sigma, p90, rho, gamma, r2_y, delta, r2_x, mse_full
EXPECTED_TABLE1 = {
    ("high", "predict", "MCAR"): (0.000, 1.11, 9.1, 0.90, 0.80, 0.92, 1.04, 0.87, 0.10),
    ("high", "predict", "MAR"): (-0.004, 1.10, 8.9, 0.91, 0.80, 0.92, 1.04, 0.87, 0.10),
    ("high", "draw", "MCAR"): (-0.000, 1.15, 10.0, 0.87, 0.80, 0.85, 0.88, 0.78, 0.20),
    ("high", "draw", "MAR"): (-0.002, 1.14, 10.0, 0.87, 0.80, 0.85, 0.88, 0.78, 0.20),
    ("low", "predict", "MCAR"): (0.004, 0.82, 5.4, 0.60, 0.40, 0.41, 0.57, 0.42, 0.40),
    ("low", "predict", "MAR"): (-0.002, 0.83, 3.9, 0.60, 0.40, 0.41, 0.57, 0.42, 0.40),
    ("low", "draw", "MCAR"): (0.003, 1.04, 10.1, 0.48, 0.40, 0.26, 0.32, 0.35, 0.80),
    ("low", "draw", "MAR"): (-0.003, 1.04, 10.1, 0.48, 0.40, 0.26, 0.32, 0.35, 0.80),
}
TABLE1_TOL = {
    "mu": 0.02, "sigma": 0.02, "p90": 0.7, "rho": 0.015, "gamma": 0.02,
    "r2_y": 0.015, "delta": 0.03, "r2_x": 0.015, "mse_full": 0.015,
}

# pmm reference values: sigma, rho, gamma, r2_y, delta, r2_x, mse_full
EXPECTED_PMM = {
    ("high", "MCAR"): (1.15, 0.87, 0.79, 0.85, 0.88, 0.78, 0.20),
    ("high", "MAR"): (1.13, 0.86, 0.78, 0.84, 0.88, 0.77, 0.21),
    ("low", "MCAR"): (1.04, 0.48, 0.40, 0.26, 0.32, 0.35, 0.81),
    ("low", "MAR"): (1.03, 0.47, 0.39, 0.25, 0.32, 0.35, 0.81),
}
PMM_FIELDS = ("sigma", "rho", "gamma", "r2_y", "delta", "r2_x")

MCAR = Mechanism.MCAR
MAR = Mechanism.MAR_RIGHT


@pytest.fixture(scope="module")
def table1():
    return run_table1(CFG)


@pytest.fixture(scope="module")
def table2():
    return run_table2(CFG)


def _row(table, signal, method, mechanism):
    for row in table.rows:
        if (row.signal, row.method, row.mechanism) == (signal, method, mechanism):
            return row
    raise AssertionError(f"row {(signal, method, mechanism)} missing")


def _se(row, name):
    return float(row.stderr[FIELDS.index(name)])


@pytest.mark.acceptance("predict and draw cells match expected values at stated tolerances")
def test_table1_cells(table1):
    failures = []
    for key, expected in EXPECTED_TABLE1.items():
        row = _row(table1, *key)
        for name, want in zip(FIELDS[:9], expected):
            got = getattr(row.params, name)
            tol = TABLE1_TOL[name] * TOL
            if abs(got - want) > tol:
                failures.append(f"{key} {name}: got {got:.4f}, want {want} +- {tol}")
    assert not failures, "\n".join(failures)


@pytest.mark.acceptance("empirical ground-truth rows match analytic values")
def test_ground_truth_rows(table1):
    for signal, r_squared in (("high", 0.8), ("low", 0.2)):
        row = _row(table1, signal, "truth", "none")
        analytic = ground_truth(PopulationSpec(r_squared=r_squared))
        for name in FIELDS:
            tol = (0.3 if name == "p90" else 0.01) * TOL
            got = getattr(row.params, name)
            want = getattr(analytic, name)
            assert abs(got - want) <= tol, f"{signal} {name}: {got:.4f} vs {want:.4f}"


@pytest.mark.acceptance("draw-to-predict error ratio lies in the doubling band in every cell")
def test_mse_doubling(table1):
    lo, hi = 2.0 - 0.2 * TOL, 2.0 + 0.2 * TOL
    for signal in ("high", "low"):
        for mech in ("MCAR", "MAR"):
            pred = _row(table1, signal, "predict", mech).params.mse_full
            drew = _row(table1, signal, "draw", mech).params.mse_full
            ratio = drew / pred
            assert lo <= ratio <= hi, (
                f"({signal}, {mech}): ratio {ratio:.3f} outside [{lo}, {hi}]"
            )


@pytest.mark.acceptance("pmm cells match expected values in all four scenarios")
def test_pmm_rows(table2):
    failures = []
    for (signal, mech), expected in EXPECTED_PMM.items():
        row = _row(table2, signal, "pmm", mech)
        for name, want in zip(PMM_FIELDS, expected[:6]):
            got = getattr(row.params, name)
            if abs(got - want) > 0.03 * TOL:
                failures.append(f"{signal}/{mech} {name}: got {got:.4f}, want {want}")
        if abs(row.params.mse_full - expected[6]) > 0.05 * TOL:
            failures.append(
                f"{signal}/{mech} mse_full: got {row.params.mse_full:.4f}, want {expected[6]}"
            )
    assert not failures, "\n".join(failures)


@pytest.mark.acceptance("forest and softimpute bias directions hold at two standard errors")
def test_analogue_bias_directions(table2):
    for mech in ("MCAR", "MAR"):
        truth = table2.truth_params("low")
        row = _row(table2, "low", "forest", mech)
        for name in ("sigma", "p90"):
            gap = getattr(truth, name) - getattr(row.params, name)
            assert gap >= 2.0 * _se(row, name), f"forest low/{mech} {name} not below truth"
        for name in ("rho", "r2_y", "delta", "r2_x"):
            gap = getattr(row.params, name) - getattr(truth, name)
            assert gap >= 2.0 * _se(row, name), f"forest low/{mech} {name} not above truth"

        truth = table2.truth_params("high")
        row = _row(table2, "high", "softimpute", mech)
        for name in ("rho", "r2_y"):
            gap = getattr(row.params, name) - getattr(truth, name)
            assert gap >= 2.0 * _se(row, name), f"softimpute high/{mech} {name} not above truth"


@pytest.mark.acceptance("decomposition: predict has no variance, draw variance and identity hold")
def test_decomposition_properties():
    for sig_idx, r_squared in enumerate((0.8, 0.2)):
        spec = PopulationSpec(r_squared=r_squared, size=POP)
        pop = generate_population(spec, make_stream(SeedSpec(987, sig_idx)))
        root = make_stream(SeedSpec(988, sig_idx))

        gaps, totals, variances = [], [], []
        for d in range(20):
            branch = root.child(d)
            sample = draw_sample(pop, 1000, branch.child(0))
            inc = ampute(sample, MCAR, branch.child(1))
            if d == 0:
                still = decompose_mse(inc, Predict(), 10, branch.child(3), spec)
                assert still.variance < 1e-10, f"predict variance {still.variance}"
            result = decompose_mse(inc, Draw(), 100, branch.child(2), spec)
            variances.append(result.variance)
            totals.append(result.total)
            gaps.append(abs(result.total - (result.bias_sq + result.variance + result.noise)))

        noise = 1.0 - r_squared
        assert np.mean(variances) == pytest.approx(noise, rel=0.15 * TOL), (
            f"draw variance {np.mean(variances):.4f} vs noise {noise}"
        )
        assert np.mean(gaps) < 0.1 * np.mean(totals), (
            f"identity gap {np.mean(gaps):.4f} vs total {np.mean(totals):.4f}"
        )


@pytest.mark.acceptance("invariants: algebra, donors, hyperplane, monotone, preservation, masking")
def test_invariant_suite(naive_params):
    gen = np.random.default_rng(5551)

    # least squares equals the pseudoinverse solution
    for trial in range(10):
        x1, x2 = gen.normal(size=50), gen.normal(size=50)
        y = 1.0 + 0.6 * x1 - 0.3 * x2 + gen.normal(size=50)
        fit = fit_ols(x1, x2, y)
        ref = np.linalg.pinv(np.column_stack([np.ones(50), x1, x2])) @ y
        assert np.max(np.abs(fit.coefficients - ref)) < 1e-8

    # shared inputs for the imputation-level invariants
    pop = generate_population(
        PopulationSpec(r_squared=0.2, size=50_000), make_stream(SeedSpec(990, 0))
    )
    sample = draw_sample(pop, 1000, make_stream(SeedSpec(990, 1)))
    inc = ampute(sample, MAR, make_stream(SeedSpec(990, 2)))

    # every pmm-imputed value is a donor's observed value
    completed = Pmm().impute_block(inc, [make_stream(SeedSpec(990, 3))])
    observed = set(inc.y[~inc.mask].tolist())
    assert all(v in observed for v in completed[inc.mask])

    # predict-imputed values sit on the fitted hyperplane
    keep = ~inc.mask
    fit = fit_ols(inc.x1[keep], inc.x2[keep], inc.y[keep])
    resid = Predict().impute_block(inc, [make_stream(SeedSpec(990, 3))])[inc.mask] - predict(
        fit.coefficients, inc.x1[inc.mask], inc.x2[inc.mask]
    )
    assert np.max(np.abs(resid)) < 1e-10

    # matrix completion objective never increases
    matrix = gen.normal(size=(60, 3))
    matrix[gen.random(size=(60, 3)) < 0.3] = np.nan
    _, objectives, _ = als_matrix_complete(
        matrix, rank_max=2, ridge=0.0, max_iter=150, tol=1e-12,
        stream=make_stream(SeedSpec(990, 4)),
    )
    diffs = np.diff(objectives)
    assert np.all(diffs <= 1e-9 * np.array(objectives[:-1]) + 1e-12)

    # no method touches an observed value
    methods = (
        Predict(), Draw(), Pmm(), SoftImpute(),
        Forest(n_trees=10),
    )
    for method in methods:
        out = method.impute_block(inc, [make_stream(SeedSpec(990, 5))])
        np.testing.assert_array_equal(out[~inc.mask], inc.y[~inc.mask])

    # parameter estimation agrees with a naively coded reference
    for trial in range(10):
        n = int(gen.integers(40, 150))
        x1, x2 = gen.normal(size=n), gen.normal(size=n)
        truth_y = 0.4 * x1 + gen.normal(size=n)
        mask = gen.random(size=n) < 0.4
        inc_t = block_of_one(x1, x2, np.where(mask, np.nan, truth_y), mask, truth_y)
        comp = completed_of(inc_t, inc_t.filled(gen.normal(size=int(mask.sum()))))
        truth_data = Dataset(x1, x2, truth_y)
        got = estimate_params(comp, truth_data)
        want = naive_params(comp, truth_data)
        for name in FIELDS:
            assert abs(getattr(got, name) - want[name]) < 1e-10, name

    # amputation hits the requested proportion and censors the right tail
    big = generate_population(
        PopulationSpec(r_squared=0.2, size=100_000), make_stream(SeedSpec(991, 0))
    )
    for mech in (MCAR, MAR):
        masked = ampute(big, mech, make_stream(SeedSpec(991, 1)))
        assert masked.mask.mean() == pytest.approx(0.5, abs=0.01)
    mar = ampute(big, MAR, make_stream(SeedSpec(991, 2)))
    upper = mar.mask[0][big.x1 > 0].mean()
    lower = mar.mask[0][big.x1 <= 0].mean()
    assert upper > lower + 0.2
    mcar = ampute(big, MCAR, make_stream(SeedSpec(991, 3)))
    assert abs(np.corrcoef(mcar.mask.astype(float), big.x1)[0, 1]) < 0.02


@pytest.mark.acceptance("table output byte-identical across reruns and thread counts")
def test_byte_identical_output(table1):
    text_a = format_table(table1, style="csv")
    text_b = format_table(run_table1(CFG), style="csv")
    text_c = format_table(run_table1(CFG, threads=8), style="csv")
    assert text_a == text_b
    assert text_a == text_c
