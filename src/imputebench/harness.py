"""Experiment grid: signal level x imputation method x missingness.

One cell = one (population, method, mechanism) triple, replicated
t_rep times: draw a sample, mask it, impute it, estimate the downstream
parameters, then average field-wise. Every replication owns three
private random streams (sampling, amputation, imputation) derived from
the base seed, the cell's canonical index, and the replication number,
so any cell or replication can be recomputed in isolation and results
do not depend on execution order or worker count.

A cell walks its replications in blocks: each replication still draws
from its own streams, in order, and the arithmetic between the draws
(gather, mask and its shift, fill, estimate) runs once per block on
(k, n) arrays whose row sums are each row's own sum; only the OLS fits
of predict and draw run row by row. No byte depends on how replications
are grouped into blocks; replication t alone is the block [t, t].
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Sequence

import numpy as np

from .ampute import CompletedDataset, IncompleteBlock, Mechanism, _incomplete_block, _mask_rows
from .datagen import Dataset, ParamSet, PopulationSpec, _sample_rows, _trusted, generate_population
from .downstream import DecompositionResult, _estimate_rows, decompose_mse, estimate_params
from .imputers import Draw, Forest, ImputationMethod, Pmm, Predict, SoftImpute
from .stochastics import Purpose, SeedSpec, make_stream, substream_id

TRUTH_LABEL = "truth"
NO_MECHANISM_LABEL = "none"
_N_FIELDS = len(ParamSet.field_names())
# the first eight fields estimate population parameters and can be biased;
# the mse fields measure error against a zero truth and are never flagged
_FLAGGABLE_FIELDS = 8
_FIGURE_CELL = 2**24 - 1
# a cell's replications run in blocks of this many sample values (16 of
# 1,000 rows): enough to pay numpy's per-call cost once per block, few
# enough to keep the blocks' memory small
_BLOCK_VALUES = 2**14

# The paper's grid, in report order: two signal levels (label, population)
# crossed with two mechanisms. The labels also sort in this order, so the
# population of SIGNALS[i] is drawn from substream_id(i, 0, POPULATION);
# bench/child.py rebuilds the populations by that rule.
SIGNALS: tuple[tuple[str, PopulationSpec], ...] = (
    ("high", PopulationSpec(r_squared=0.8)),
    ("low", PopulationSpec(r_squared=0.2)),
)
MECHANISMS: tuple[Mechanism, ...] = (Mechanism.MCAR, Mechanism.MAR_RIGHT)


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
        # replications 1..t_rep need stream ids, as stochastics lays them out
        try:
            substream_id(0, self.t_rep, Purpose.SAMPLING)
        except ValueError:
            raise ValueError(
                f"t_rep={self.t_rep} is more replications than a stream id can address"
            ) from None
        SeedSpec(self.base_seed, 0)


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


def _frozen(block: np.ndarray) -> np.ndarray:
    block.flags.writeable = False
    return block


def _masked_block(
    cfg: ExperimentConfig, pop: Dataset, cell_id: int, mech: Mechanism, first: int, last: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Samples of pop for replications first..last and their amputations.

    Returns the read-only (k, n) blocks x1, x2, y and mask, row i being
    replication first + i. Each replication draws its rows from its
    sampling stream and one uniform per row from its amputation stream,
    in replication order; the gather and the masking arithmetic then run
    once for the block.
    """
    reps = range(first, last + 1)
    idx = np.empty((len(reps), cfg.n_sample), dtype=np.intp)
    u = np.empty((len(reps), cfg.n_sample))
    for i, t in enumerate(reps):
        idx[i] = _sample_rows(pop, cfg.n_sample, _rep_stream(cfg, cell_id, t, Purpose.SAMPLING))
        u[i] = _rep_stream(cfg, cell_id, t, Purpose.AMPUTATION).generator.random(cfg.n_sample)
    x1, x2, y = (_frozen(col[idx]) for col in (pop.x1, pop.x2, pop.y))
    return x1, x2, y, _mask_rows(x1, mech, u)


def _sample_and_mask(
    cfg: ExperimentConfig, pop: Dataset, cell_id: int, mech: Mechanism, t: int
) -> tuple[Dataset, IncompleteBlock]:
    """Replication t's sample of pop and its amputation, the block [t, t]."""
    inc = _incomplete_block(*_masked_block(cfg, pop, cell_id, mech, t, t))
    return _trusted(Dataset, x1=inc.x1[0], x2=inc.x2[0], y=inc.truth_y[0]), inc


# =====================================================================
# cells
# =====================================================================

@dataclass(frozen=True)
class _Cell:
    """The work of one table row: a grid cell, or its signal's truth row."""

    cell_id: int
    level: int
    method: ImputationMethod | None = None
    mech: Mechanism | None = None

    @property
    def signal(self) -> str:
        return SIGNALS[self.level][0]

    @property
    def name(self) -> str:
        if self.method is None:
            return f"truth row (signal={self.signal})"
        return (
            f"cell (signal={self.signal}, method={self.method.label}, "
            f"mechanism={self.mech.label})"
        )


@contextmanager
def _failures_named(name: str, t: int | None = None):
    """Re-raise any failure inside as one error naming its row and replication t, if given."""
    where = "" if t is None else f" at replication {t}"
    try:
        yield
    except Exception as exc:
        raise RuntimeError(f"{name} failed{where}: {exc}") from exc


def _block_params(
    pop: Dataset, cell: _Cell, cfg: ExperimentConfig, first: int, last: int
) -> np.ndarray:
    """The parameter rows of replications first..last of a cell, one row each.

    The method imputes the block, each replication drawing only from its
    own imputation stream, and the completed (k, n) block of y is
    estimated in one pass. A method's completion changes only y at the
    mask, so the replication's x1, x2 and mask are estimated with it.
    """
    x1, x2, y, mask = _masked_block(cfg, pop, cell.cell_id, cell.mech, first, last)
    streams = [
        _rep_stream(cfg, cell.cell_id, t, Purpose.IMPUTATION) for t in range(first, last + 1)
    ]
    completed = cell.method.impute_block(_incomplete_block(x1, x2, y, mask), streams)
    return _estimate_rows(x1, x2, completed, y, mask)


def _cell_reps(pop: Dataset, cell: _Cell, cfg: ExperimentConfig) -> np.ndarray:
    """The parameters of each of a cell's replications, row t - 1 for replication t.

    Replications run in blocks of _BLOCK_VALUES // n_sample (at least
    one); no byte depends on the block size. When a block fails, its
    replications are rerun one at a time, so the error names the first
    replication that fails, as a serial run would.
    """
    reps = np.empty((cfg.t_rep, _N_FIELDS))
    k = max(1, _BLOCK_VALUES // cfg.n_sample)
    for first in range(1, cfg.t_rep + 1, k):
        last = min(first + k - 1, cfg.t_rep)
        try:
            reps[first - 1:last] = _block_params(pop, cell, cfg, first, last)
        except Exception as exc:
            for t in range(first, last + 1):
                with _failures_named(cell.name, t):
                    _block_params(pop, cell, cfg, t, t)
            raise RuntimeError(f"{cell.name} failed at replications {first}-{last}: {exc}") from exc
    return reps


def _cell_stats(pop: Dataset, cell: _Cell, cfg: ExperimentConfig) -> tuple[ParamSet, np.ndarray]:
    """Field-wise mean and Monte Carlo standard error over replications."""
    reps = _cell_reps(pop, cell, cfg)
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
        (SIGNALS[level][0], method.label, mech.label)
        for level, method, mech in cells
    ]
    id_of = {key: i for i, key in enumerate(sorted(keys))}
    return [_Cell(id_of[key], *cell) for key, cell in zip(keys, cells)]


def _table_row(cfg: ExperimentConfig, cell: _Cell) -> TableRow:
    """One summary-table row; serial and pool runs map this over the same cells."""
    pop = _build_population(cfg, cell.level)
    if cell.method is None:
        truth = CompletedDataset(data=pop, imputed_mask=np.zeros(len(pop), dtype=bool), method=None)
        with _failures_named(cell.name):
            params = estimate_params(truth, pop)
        return TableRow(cell.signal, TRUTH_LABEL, NO_MECHANISM_LABEL, params)
    mean, stderr = _cell_stats(pop, cell, cfg)
    return TableRow(cell.signal, cell.method.label, cell.mech.label, mean, stderr)


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
        from concurrent.futures import ProcessPoolExecutor  # serial runs skip its import

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
    lines = ["x1,y,status,method"]
    with _failures_named(f"figure (signal={SIGNALS[level][0]}, mechanism={mech.label})", 1):
        _, inc = _sample_and_mask(cfg, pop, _FIGURE_CELL, mech, 1)
        # predict draws nothing; draw takes replication 2's imputation stream
        completions = []
        for method, t in ((Predict(), 1), (Draw(), 2)):
            stream = _rep_stream(cfg, _FIGURE_CELL, t, Purpose.IMPUTATION)
            completions.append((method.label, method.impute_block(inc, [stream])[0]))
    for label, y in completions:
        for x1, value, masked in zip(inc.x1[0], y, inc.mask[0]):
            status = "imputed" if masked else "observed"
            lines.append(f"{x1:.17g},{value:.17g},{status},{label}")
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
        out.append((cell.signal, cell.mech.label, result))
    return out
