from dataclasses import dataclass, fields, replace

import numpy as np
import pytest

from conftest import completed_of
from imputebench.ampute import Mechanism, ampute
from imputebench.cli import parse_and_dispatch
from imputebench.datagen import (
    PopulationSpec,
    draw_sample,
    generate_population,
    ground_truth,
)
from imputebench.downstream import ParamSet, estimate_params
from imputebench.harness import (
    CSV_HEADER,
    MECHANISMS,
    SIGNALS,
    ExperimentConfig,
    SummaryTable,
    _BLOCK_VALUES,
    _build_population,
    _cell_reps,
    _Cell,
    export_figure_data,
    format_table,
    run_decomposition,
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
from imputebench.stochastics import Purpose, SeedSpec, make_stream, substream_id

FIELDS = ParamSet.field_names()


@pytest.fixture(scope="module")
def table1_small():
    cfg = ExperimentConfig(t_rep=20, pop_size=100_000)
    return cfg, run_table1(cfg)


def _tiny_cfg(**overrides):
    defaults = dict(t_rep=3, pop_size=20_000, n_sample=500, base_seed=77)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestExperimentConfig:
    @pytest.mark.parametrize("kwargs", [
        {"t_rep": 0},
        {"n_sample": 0},
        {"n_sample": 2_000_001},
        {"base_seed": -1},
        {"base_seed": 2**64},
        {"t_rep": 2**37},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)

    def test_last_addressable_replication(self):
        # replications run 1..t_rep, and stream ids hold replications below 2**37
        assert ExperimentConfig(t_rep=2**37 - 1).t_rep == 2**37 - 1

    def test_defaults(self):
        cfg = ExperimentConfig()
        assert tuple(f.name for f in fields(cfg)) == (
            "methods", "n_sample", "t_rep", "base_seed", "pop_size",
        )
        assert (cfg.methods, cfg.n_sample, cfg.t_rep, cfg.base_seed, cfg.pop_size) == (
            (), 1000, 200, 123, 1_000_000,
        )
        assert [(label, spec.r_squared) for label, spec in SIGNALS] == [
            ("high", 0.8), ("low", 0.2),
        ]
        assert MECHANISMS == (Mechanism.MCAR, Mechanism.MAR_RIGHT)


# The full table1 grid: cell keys sort as (high, draw, MAR), (high, draw,
# MCAR), (high, predict, MAR), (high, predict, MCAR), (low, draw, MAR),
# (low, draw, MCAR), ..., and the low population is the second signal.
LOW_DRAW_MAR = 4
LOW_DRAW_MCAR = 5


def _replay(cfg, mech, method, cell_id, t):
    """Replication t of a low-signal cell, rebuilt from its stream addresses alone."""
    def rep_stream(purpose):
        return make_stream(SeedSpec(cfg.base_seed, substream_id(cell_id, t, purpose)))

    pop = generate_population(
        PopulationSpec(r_squared=0.2, size=cfg.pop_size),
        make_stream(SeedSpec(cfg.base_seed, substream_id(1, 0, Purpose.POPULATION))),
    )
    sample = draw_sample(pop, cfg.n_sample, rep_stream(Purpose.SAMPLING))
    inc = ampute(sample, mech, rep_stream(Purpose.AMPUTATION))
    completed = method.impute_block(inc, [rep_stream(Purpose.IMPUTATION)])
    return estimate_params(completed_of(inc, completed), sample).as_array()


def _row_params(table, mechanism):
    (row,) = [
        r for r in table.rows
        if (r.signal, r.method, r.mechanism) == ("low", "draw", mechanism)
    ]
    return row.params.as_array()


class TestRunCell:
    def test_matches_manual_replication(self):
        mech = Mechanism.MAR_RIGHT
        cfg = _tiny_cfg(t_rep=1)
        got = _row_params(run_table1(cfg), "MAR")
        np.testing.assert_array_equal(got, _replay(cfg, mech, Draw(), LOW_DRAW_MAR, 1))

    def test_rep_streams_stable_under_longer_runs(self):
        # the t-th replication must not depend on t_rep, so the two-rep
        # mean recombines exactly from the one-rep mean and rep two
        mech = Mechanism.MCAR
        cfg1 = _tiny_cfg(t_rep=1)
        cfg2 = _tiny_cfg(t_rep=2)
        mean1 = _row_params(run_table1(cfg1), "MCAR")
        mean2 = _row_params(run_table1(cfg2), "MCAR")
        rep2 = _replay(cfg2, mech, Draw(), LOW_DRAW_MCAR, 2)
        np.testing.assert_allclose(mean2, 0.5 * (mean1 + rep2), atol=1e-12)

    def test_error_names_cell_and_replication(self):
        # three rows leave too few observed ones for the imputation model,
        # and the high/predict/MCAR cell is the first to run
        cfg = _tiny_cfg(t_rep=2, n_sample=3)
        with pytest.raises(
            RuntimeError,
            match=r"cell \(signal=high, method=predict, mechanism=MCAR\) failed at replication 1",
        ):
            run_table1(cfg)


# n_sample 500 fills a block with 32 replications; this many is a full block and 3
BLOCK_REPS = _BLOCK_VALUES // 500 + 3
HIGH_PREDICT_MCAR = 3
LOW_PREDICT_MAR = 6
LOW_PREDICT_MCAR = 7


def _imputation_streams(cfg, cell_id, reps):
    return frozenset(
        repr(make_stream(SeedSpec(cfg.base_seed, substream_id(cell_id, t, Purpose.IMPUTATION))))
        for t in reps
    )


@dataclass(frozen=True)
class _PredictExceptOn(Predict):
    """predict, except on the imputation streams in ``streams``: there it
    imputes 1e200 if ``huge``, and raises otherwise. The failure enters at
    the block entry, which the harness calls."""

    streams: frozenset = frozenset()
    huge: bool = False

    def impute_block(self, block, streams):
        hit = [i for i, stream in enumerate(streams) if repr(stream) in self.streams]
        if hit and not self.huge:
            raise ValueError("imputer refused on purpose")
        completed = super().impute_block(block, streams).copy()
        for i in hit:
            completed[i][block.mask[i]] = 1e200
        return completed


class TestBlocks:
    @pytest.mark.parametrize("method,mech,cell_id", [
        (Predict(), Mechanism.MCAR, LOW_PREDICT_MCAR),
        (Predict(), Mechanism.MAR_RIGHT, LOW_PREDICT_MAR),
        (Draw(), Mechanism.MCAR, LOW_DRAW_MCAR),
        (Draw(), Mechanism.MAR_RIGHT, LOW_DRAW_MAR),
    ], ids=["predict-MCAR", "predict-MAR", "draw-MCAR", "draw-MAR"])
    def test_every_replication_equals_its_replay(self, method, mech, cell_id):
        cfg = _tiny_cfg(t_rep=BLOCK_REPS)
        reps = _cell_reps(_build_population(cfg, 1), _Cell(cell_id, 1, method, mech), cfg)
        for t in range(1, cfg.t_rep + 1):
            want = _replay(cfg, mech, method, cell_id, t)
            assert reps[t - 1].tobytes() == want.tobytes(), t

    def test_imputer_failure_names_its_replication(self):
        # 35 and 38 both fail, in the second block; a serial run meets 35 first
        cfg = _tiny_cfg(t_rep=BLOCK_REPS + 5)
        failing = _PredictExceptOn(_imputation_streams(cfg, HIGH_PREDICT_MCAR, (35, 38)))
        with pytest.raises(
            RuntimeError,
            match=r"cell \(signal=high, method=predict, mechanism=MCAR\) failed at "
                  r"replication 35: imputer refused on purpose$",
        ):
            run_table1(replace(cfg, methods=(failing, Draw())))

    def test_estimate_overflow_names_its_replication(self):
        cfg = _tiny_cfg(t_rep=BLOCK_REPS)
        huge = _PredictExceptOn(_imputation_streams(cfg, HIGH_PREDICT_MCAR, (34,)), huge=True)
        with pytest.raises(
            RuntimeError,
            match=r"cell \(signal=high, method=predict, mechanism=MCAR\) failed at "
                  r"replication 34: column y is too large: its centred squares overflow$",
        ):
            run_table1(replace(cfg, methods=(huge, Draw())))


class TestRunTable1:
    def test_row_layout(self, table1_small):
        _, table = table1_small
        layout = [(r.signal, r.method, r.mechanism) for r in table.rows]
        assert layout == [
            ("high", "truth", "none"),
            ("high", "predict", "MCAR"),
            ("high", "predict", "MAR"),
            ("high", "draw", "MCAR"),
            ("high", "draw", "MAR"),
            ("low", "truth", "none"),
            ("low", "predict", "MCAR"),
            ("low", "predict", "MAR"),
            ("low", "draw", "MCAR"),
            ("low", "draw", "MAR"),
        ]

    def test_truth_rows_match_analytic(self, table1_small):
        _, table = table1_small
        for r_squared, signal in ((0.8, "high"), (0.2, "low")):
            truth = table.truth_params(signal)
            gt = ground_truth(PopulationSpec(r_squared=r_squared))
            assert truth.p90 == pytest.approx(10.0, abs=0.3)
            for name in ("mu", "sigma", "rho", "gamma", "r2_y", "delta", "r2_x"):
                assert getattr(truth, name) == pytest.approx(getattr(gt, name), abs=0.01), name
        assert table.truth_params("nope") is None

    def test_truth_rows_report_zero_error(self, table1_small):
        _, table = table1_small
        for signal in ("high", "low"):
            truth = table.truth_params(signal)
            assert truth.mse_full == 0.0
            assert truth.mse_missing == 0.0

    def test_method_rows_have_stderr(self, table1_small):
        _, table = table1_small
        for row in table.rows:
            if row.method == "truth":
                assert row.stderr is None
            else:
                assert row.stderr.shape == (len(FIELDS),)
                assert np.all(row.stderr >= 0)

    def test_method_substitution_checked(self):
        with pytest.raises(ValueError, match="expects methods"):
            run_table1(_tiny_cfg(methods=(Pmm(),)))


class TestMarkdownFlags:
    def test_predict_rows_flag_biased_fields_only(self, table1_small):
        _, table = table1_small
        text = format_table(table, style="markdown")
        lines = text.strip().split("\n")
        assert len(lines) == 2 + 10
        starred_by_key = {}
        for line in lines[2:]:
            cells = [c.strip() for c in line.strip("|").split("|")]
            key = tuple(cells[:3])
            starred = {
                FIELDS[i] for i, cell in enumerate(cells[3:]) if cell.endswith("*")
            }
            starred_by_key[key] = starred
        biased = {"sigma", "p90", "rho", "r2_y", "delta", "r2_x"}
        for signal in ("high", "low"):
            assert starred_by_key[(signal, "truth", "none")] == set()
            for mech in ("MCAR", "MAR"):
                assert starred_by_key[(signal, "predict", mech)] == biased, (signal, mech)
                draw_starred = starred_by_key[(signal, "draw", mech)]
                assert "mse_full" not in draw_starred
                assert "mse_missing" not in draw_starred


class TestRunTable2:
    def test_row_layout_cheap_config(self):
        cfg = ExperimentConfig(
            methods=(Forest(n_trees=15), SoftImpute(), Pmm()),
            t_rep=2,
            pop_size=50_000,
            base_seed=77,
        )
        table = run_table2(cfg)
        layout = [(r.signal, r.method, r.mechanism) for r in table.rows]
        expected = []
        for signal in ("high", "low"):
            expected.append((signal, "truth", "none"))
            for method in ("forest", "softimpute", "pmm"):
                for mech in ("MCAR", "MAR"):
                    expected.append((signal, method, mech))
        assert layout == expected

    def test_method_substitution_checked(self):
        with pytest.raises(ValueError, match="expects methods"):
            run_table2(_tiny_cfg(methods=(Predict(), Draw())))


class TestDeterminism:
    def test_repeat_run_byte_identical(self):
        cfg = _tiny_cfg()
        a = format_table(run_table1(cfg), style="csv")
        b = format_table(run_table1(cfg), style="csv")
        assert a == b

    def test_thread_count_does_not_change_results(self):
        cfg = _tiny_cfg()
        serial = format_table(run_table1(cfg, threads=1), style="csv")
        pooled = format_table(run_table1(cfg, threads=2), style="csv")
        assert serial == pooled

    def test_config_order_does_not_change_cells(self):
        fwd = _tiny_cfg(methods=(Predict(), Draw()))
        rev = _tiny_cfg(methods=(Draw(), Predict()))
        by_key = {}
        for row in run_table1(fwd).rows:
            by_key[(row.signal, row.method, row.mechanism)] = row.params.as_array()
        for row in run_table1(rev).rows:
            np.testing.assert_array_equal(
                row.params.as_array(), by_key[(row.signal, row.method, row.mechanism)]
            )


class TestFormatTable:
    def test_empty_table(self):
        assert format_table(SummaryTable(rows=())) == CSV_HEADER + "\n"

    def test_csv_parses_back(self, table1_small):
        _, table = table1_small
        lines = format_table(table, style="csv").strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 11
        for line in lines[1:]:
            parts = line.split(",")
            assert len(parts) == 3 + len(FIELDS)
            for value in parts[3:]:
                float(value)
                assert len(value.split(".")[1]) == 3

    def test_unknown_style(self):
        with pytest.raises(ValueError):
            format_table(SummaryTable(rows=()), style="latex")


class TestFigure:
    def test_export_shape_and_determinism(self):
        cfg = _tiny_cfg(n_sample=1000)
        text = export_figure_data(cfg)
        assert export_figure_data(cfg) == text
        lines = text.strip().split("\n")
        assert lines[0] == "x1,y,status,method"
        assert len(lines) - 1 == 2 * cfg.n_sample

        counts = {"predict": 0, "draw": 0}
        for line in lines[1:]:
            x1, y, status, method = line.split(",")
            float(x1), float(y)
            assert status in ("observed", "imputed")
            if status == "imputed":
                counts[method] += 1
        assert counts["predict"] == counts["draw"]
        assert 400 <= counts["predict"] <= 600

    def test_file_output(self, tmp_path):
        cfg = _tiny_cfg(n_sample=200)
        out = tmp_path / "figure.csv"
        argv = ["figure", "--pop-size", str(cfg.pop_size), "--samples", "200",
                "--seed", str(cfg.base_seed), "--out", str(out)]
        assert parse_and_dispatch(argv) == 0
        assert out.read_text() == export_figure_data(cfg)


class TestRunDecomposition:
    def test_grid_coverage(self):
        cfg = _tiny_cfg(n_sample=1000)
        results = run_decomposition(cfg, Draw(), repeats=5)
        keys = {(signal, mech) for signal, mech, _ in results}
        assert keys == {
            ("high", "MCAR"), ("high", "MAR"), ("low", "MCAR"), ("low", "MAR"),
        }
        for _, _, result in results:
            assert result.total > 0
            assert result.variance > 0
