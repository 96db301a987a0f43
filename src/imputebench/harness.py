"""Experiment grid: signal level x imputation method x missingness.

One cell = one (population, method, mechanism) triple, replicated
t_rep times: draw a sample, mask it, impute it, estimate the downstream
parameters, then average field-wise. Every replication owns three
private random streams (sampling, amputation, imputation) derived from
the base seed, the cell's canonical index, and the replication number,
so any cell or replication can be recomputed in isolation and results
do not depend on execution order or worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Sequence

import numpy as np

from .ampute import CompletedDataset, IncompleteDataset, Mechanism, MissingnessSpec, ampute
from .datagen import Dataset, ParamSet, PopulationSpec, draw_sample, generate_population
from .downstream import DecompositionResult, decompose_mse, estimate_params
from .imputers import (
    Draw,
    Forest,
    ImputationMethod,
    Pmm,
    Predict,
    SoftImpute,
    impute_draw,
    impute_predict,
)
from .stochastics import Purpose, SeedSpec, make_stream, substream_id

TRUTH_LABEL = "truth"
NO_MECHANISM_LABEL = "none"
_N_FIELDS = len(ParamSet.field_names())
# the first eight fields estimate population parameters and can be biased;
# the mse fields measure error against a zero truth and are never flagged
_FLAGGABLE_FIELDS = 8
_FIGURE_CELL = 2**24 - 1

# The paper's grid, in report order: two signal levels (label, population)
# crossed with two mechanisms. The labels also sort in this order, so the
# population of SIGNALS[i] is drawn from substream_id(i, 0, POPULATION);
# bench/child.py rebuilds the populations by that rule.
SIGNALS: tuple[tuple[str, PopulationSpec], ...] = (
    ("high", PopulationSpec(r_squared=0.8)),
    ("low", PopulationSpec(r_squared=0.2)),
)
MECHANISMS: tuple[MissingnessSpec, ...] = (
    MissingnessSpec(Mechanism.MCAR),
    MissingnessSpec(Mechanism.MAR_RIGHT),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Run settings of an experiment on the fixed SIGNALS x MECHANISMS grid."""

    methods: tuple[ImputationMethod, ...] = ()
    n_sample: int = 1000
    t_rep: int = 200
    base_seed: int = 123
    pop_size: int = 1_000_000

    def __post_init__(self):
        object.__setattr__(self, "methods", tuple(self.methods))
        if self.t_rep < 1:
            raise ValueError(f"t_rep must be at least 1, got {self.t_rep}")
        if self.n_sample < 1:
            raise ValueError(f"n_sample must be at least 1, got {self.n_sample}")
        if self.n_sample > self.pop_size:
            raise ValueError(
                f"n_sample={self.n_sample} exceeds pop_size={self.pop_size}"
            )
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be non-negative, got {self.base_seed}")


@dataclass(frozen=True)
class TableRow:
    signal: str
    method: str
    mechanism: str
    params: ParamSet
    stderr: np.ndarray | None = None

    def __post_init__(self):
        if self.stderr is not None:
            arr = np.array(self.stderr, dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, "stderr", arr)


@dataclass(frozen=True)
class SummaryTable:
    rows: tuple[TableRow, ...]

    def truth_params(self, signal: str) -> ParamSet | None:
        for row in self.rows:
            if row.signal == signal and row.method == TRUTH_LABEL:
                return row.params
        return None


# =====================================================================
# stream allocation
# =====================================================================

@lru_cache(maxsize=2)
def _build_population(cfg: ExperimentConfig, level: int) -> Dataset:
    """The population of SIGNALS[level], memoized per process.

    Two entries hold both signal levels, so a process (the parent, or a
    pool worker) builds each population once per config.
    """
    stream = make_stream(SeedSpec(cfg.base_seed, substream_id(level, 0, Purpose.POPULATION)))
    return generate_population(replace(SIGNALS[level][1], size=cfg.pop_size), stream)


def _rep_stream(cfg: ExperimentConfig, cell_id: int, t: int, purpose: Purpose):
    return make_stream(SeedSpec(cfg.base_seed, substream_id(cell_id, t, purpose)))


def _sample_and_mask(
    cfg: ExperimentConfig, pop: Dataset, cell_id: int, mech: MissingnessSpec, t: int
) -> tuple[Dataset, IncompleteDataset]:
    """Replication t's sample of pop and its amputation, from the cell's streams."""
    sample = draw_sample(pop, cfg.n_sample, _rep_stream(cfg, cell_id, t, Purpose.SAMPLING))
    return sample, ampute(sample, mech, _rep_stream(cfg, cell_id, t, Purpose.AMPUTATION))


# =====================================================================
# cells
# =====================================================================

@dataclass(frozen=True)
class _Cell:
    """The work of one table row: a grid cell, or its signal's truth row."""

    cell_id: int
    level: int
    method: ImputationMethod | None = None
    mech: MissingnessSpec | None = None

    @property
    def signal(self) -> str:
        return SIGNALS[self.level][0]

    @property
    def name(self) -> str:
        return (
            f"cell (signal={self.signal}, method={self.method.label}, "
            f"mechanism={self.mech.mechanism.label})"
        )


@contextmanager
def _failures_named(name: str, t: int):
    """Re-raise any failure inside as one error naming its cell and replication."""
    try:
        yield
    except Exception as exc:
        raise RuntimeError(f"{name} failed at replication {t}: {exc}") from exc


def _replicate(pop: Dataset, cell: _Cell, cfg: ExperimentConfig, t: int) -> ParamSet:
    sample, inc = _sample_and_mask(cfg, pop, cell.cell_id, cell.mech, t)
    completed = cell.method.impute(inc, _rep_stream(cfg, cell.cell_id, t, Purpose.IMPUTATION))
    return estimate_params(completed, sample)


def _cell_stats(pop: Dataset, cell: _Cell, cfg: ExperimentConfig) -> tuple[ParamSet, np.ndarray]:
    """Field-wise mean and Monte Carlo standard error over replications."""
    reps = np.empty((cfg.t_rep, _N_FIELDS))
    for t in range(1, cfg.t_rep + 1):
        with _failures_named(cell.name, t):
            reps[t - 1] = _replicate(pop, cell, cfg, t).as_array()
    mean = reps.mean(axis=0)
    if cfg.t_rep > 1:
        stderr = reps.std(axis=0, ddof=1) / math.sqrt(cfg.t_rep)
    else:
        stderr = np.full(_N_FIELDS, np.nan)
    return ParamSet.from_array(mean), stderr


def _assign_cells(methods: Sequence[ImputationMethod]) -> list[_Cell]:
    """Cells in report order, ids from the sorted (signal, method, mechanism) keys.

    The id of a cell depends only on the set of keys, never on the order
    of the method list, so reordering it cannot change any cell's streams.
    """
    cells = [
        (level, method, mech)
        for level in range(len(SIGNALS))
        for method in methods
        for mech in MECHANISMS
    ]
    keys = [
        (SIGNALS[level][0], method.label, mech.mechanism.label)
        for level, method, mech in cells
    ]
    id_of = {key: i for i, key in enumerate(sorted(keys))}
    return [_Cell(id_of[key], *cell) for key, cell in zip(keys, cells)]


def _table_row(cfg: ExperimentConfig, cell: _Cell) -> TableRow:
    """One summary-table row; serial and pool runs map this over the same cells."""
    pop = _build_population(cfg, cell.level)
    if cell.method is None:
        truth = CompletedDataset(data=pop, imputed_mask=np.zeros(len(pop), dtype=bool), method=None)
        return TableRow(cell.signal, TRUTH_LABEL, NO_MECHANISM_LABEL, estimate_params(truth, pop))
    mean, stderr = _cell_stats(pop, cell, cfg)
    return TableRow(cell.signal, cell.method.label, cell.mech.mechanism.label, mean, stderr)


def _run_grid(
    cfg: ExperimentConfig, methods: Sequence[ImputationMethod], threads: int
) -> SummaryTable:
    cells = _assign_cells(methods)
    rows = []
    for level in range(len(SIGNALS)):
        rows.append(_Cell(-1, level))
        rows.extend(cell for cell in cells if cell.level == level)
    row = partial(_table_row, cfg)
    if threads > 1 and len(rows) > 1:
        with ProcessPoolExecutor(max_workers=min(threads, len(rows))) as pool:
            return SummaryTable(rows=tuple(pool.map(row, rows)))
    return SummaryTable(rows=tuple(map(row, rows)))


def _select_methods(
    cfg: ExperimentConfig, defaults: tuple[ImputationMethod, ...]
) -> tuple[ImputationMethod, ...]:
    if not cfg.methods:
        return defaults
    expected = sorted(m.label for m in defaults)
    got = sorted(m.label for m in cfg.methods)
    if got != expected:
        raise ValueError(f"this table expects methods {expected}, got {got}")
    return cfg.methods


def run_table1(cfg: ExperimentConfig, threads: int = 1) -> SummaryTable:
    """Ground truth plus the predict and draw cells, in report order."""
    methods = _select_methods(cfg, (Predict(), Draw()))
    return _run_grid(cfg, methods, threads)


def run_table2(cfg: ExperimentConfig, threads: int = 1) -> SummaryTable:
    """Ground truth plus the forest, softimpute and pmm cells."""
    methods = _select_methods(cfg, (Forest(), SoftImpute(), Pmm()))
    return _run_grid(cfg, methods, threads)


# =====================================================================
# output
# =====================================================================

CSV_HEADER = "signal,method,mechanism," + ",".join(ParamSet.field_names())


def format_table(table: SummaryTable, style: str = "csv") -> str:
    """Render a summary table as csv or markdown text.

    Markdown marks a parameter cell with an asterisk when it lies more
    than two Monte Carlo standard errors from the same signal level's
    ground-truth value; the two mse columns measure imputation error
    rather than a population parameter and are never marked.
    """
    if style == "csv":
        lines = [CSV_HEADER]
        for row in table.rows:
            values = ",".join(f"{v:.3f}" for v in row.params.as_array())
            lines.append(f"{row.signal},{row.method},{row.mechanism},{values}")
        return "\n".join(lines) + "\n"
    if style == "markdown":
        names = ("signal", "method", "mechanism") + ParamSet.field_names()
        lines = [
            "| " + " | ".join(names) + " |",
            "|" + "|".join([" --- "] * len(names)) + "|",
        ]
        for row in table.rows:
            flags = _bias_flags(table, row)
            cells = [
                f"{v:.3f}{'*' if flagged else ''}"
                for v, flagged in zip(row.params.as_array(), flags)
            ]
            lines.append(
                "| " + " | ".join([row.signal, row.method, row.mechanism] + cells) + " |"
            )
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown style {style!r}; expected 'csv' or 'markdown'")


def _bias_flags(table: SummaryTable, row: TableRow) -> np.ndarray:
    flags = np.zeros(_N_FIELDS, dtype=bool)
    if row.method == TRUTH_LABEL or row.stderr is None:
        return flags
    truth = table.truth_params(row.signal)
    if truth is None:
        return flags
    dev = np.abs(row.params.as_array() - truth.as_array())
    with np.errstate(invalid="ignore"):
        flags[:_FLAGGABLE_FIELDS] = (
            dev[:_FLAGGABLE_FIELDS] > 2.0 * row.stderr[:_FLAGGABLE_FIELDS]
        )
    return flags


def export_figure_data(cfg: ExperimentConfig) -> str:
    """CSV text of one amputed sample completed by predict and by draw.

    Uses the low-signal population and the right-censoring MAR
    mechanism: the setting where the two methods look most different.
    One CSV row per (row, method) pair, with columns x1,y,status,method.
    """
    level, mech = 1, MECHANISMS[1]
    pop = _build_population(cfg, level)
    with _failures_named(
        f"figure (signal={SIGNALS[level][0]}, mechanism={mech.mechanism.label})", 1
    ):
        _, inc = _sample_and_mask(cfg, pop, _FIGURE_CELL, mech, 1)
        completions = [
            impute_predict(inc),
            impute_draw(inc, _rep_stream(cfg, _FIGURE_CELL, 2, Purpose.IMPUTATION)),
        ]

    lines = ["x1,y,status,method"]
    for completed in completions:
        label = completed.method.label
        for x1, y, masked in zip(completed.data.x1, completed.data.y, completed.imputed_mask):
            status = "imputed" if masked else "observed"
            lines.append(f"{x1:.17g},{y:.17g},{status},{label}")
    return "\n".join(lines) + "\n"


def run_decomposition(
    cfg: ExperimentConfig, method: ImputationMethod, repeats: int
) -> list[tuple[str, str, DecompositionResult]]:
    """Bias/variance/noise split of one method across the signal grid.

    For each (population, mechanism) cell: one sample, one amputation
    (replication-1 streams of a single-method grid), then repeated
    imputation inside decompose_mse.
    """
    out = []
    for cell in _assign_cells((method,)):
        pop = _build_population(cfg, cell.level)
        with _failures_named(cell.name, 1):
            sample, inc = _sample_and_mask(cfg, pop, cell.cell_id, cell.mech, 1)
            result = decompose_mse(
                inc,
                sample,
                method,
                repeats,
                _rep_stream(cfg, cell.cell_id, 1, Purpose.IMPUTATION),
                SIGNALS[cell.level][1],
            )
        out.append((cell.signal, cell.mech.mechanism.label, result))
    return out
