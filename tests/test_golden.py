"""Frozen outputs: every artifact of a cheap run, compared byte for byte.

The files under ``tests/golden/`` were written by this module from the
code as it stood when they were frozen. A change that moves numbers on
purpose regenerates them, from the repository root, with

    PYTHONPATH=src python3 tests/test_golden.py

and says in CHANGES.md which cells moved and why.
"""

import contextlib
import io
import pathlib
from dataclasses import replace

import pytest

from imputebench.cli import parse_and_dispatch
from imputebench.harness import (
    ExperimentConfig,
    export_figure_data,
    format_table,
    run_table1,
    run_table2,
)
from imputebench.imputers import Forest, Pmm, SoftImpute

GOLDEN = pathlib.Path(__file__).parent / "golden"
CFG = ExperimentConfig(t_rep=3, pop_size=50_000)
CFG2 = replace(CFG, methods=(Forest(n_trees=15), SoftImpute(), Pmm()))
# 37 replications of 1,000 rows are two full blocks of 16 and a short one of 5
CFG_BLOCKS = replace(CFG, t_rep=37)
DECOMPOSE_ARGV = ["--pop-size", str(CFG.pop_size), "--repeats", "5"]


def _cli_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = parse_and_dispatch(argv)
    assert status == 0, argv
    return out.getvalue()


def table_outputs(threads):
    table1 = run_table1(CFG, threads=threads)
    return {
        "table1.csv": format_table(table1, "csv"),
        "table1.md": format_table(table1, "markdown"),
        "table1-blocks.csv": format_table(run_table1(CFG_BLOCKS, threads=threads), "csv"),
        "table2.csv": format_table(run_table2(CFG2, threads=threads), "csv"),
    }


def other_outputs():
    return {
        "figure.csv": export_figure_data(CFG),
        **{
            f"decompose-{method}.csv": _cli_stdout(
                ["decompose", "--method", method, *DECOMPOSE_ARGV]
            )
            for method in ("draw", "softimpute")
        },
    }


def _assert_golden(outputs):
    for name, text in outputs.items():
        assert text.encode("ascii") == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize("threads", [1, 2])
def test_tables_match_golden(threads):
    _assert_golden(table_outputs(threads))


def test_figure_and_decompose_match_golden():
    _assert_golden(other_outputs())


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, text in {**table_outputs(1), **other_outputs()}.items():
        (GOLDEN / name).write_text(text, encoding="ascii", newline="\n")
        print(f"wrote {GOLDEN / name}")
