"""Frozen outputs: every artifact of a cheap run, compared byte for byte.

The files under ``tests/golden/`` were written by this module from the
code as it stood when they were frozen. ``manifest.json`` holds the
sha256 of every CLI output on a fixed checklist, at a 10^5-row
population on two seeds; the outputs themselves are too large to keep.
A change that moves numbers on purpose regenerates them all, the
manifest included, from the repository root, with

    PYTHONPATH=src python3 tests/test_golden.py

and says in CHANGES.md which cells moved and why.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import tempfile
from dataclasses import replace

import pytest

from imputebench.cli import parse_and_dispatch
from imputebench.harness import (
    ExperimentConfig,
    _run_grid,
    export_figure_data,
    format_table,
    run_table1,
)
from imputebench.imputers import Forest, Pmm, SoftImpute

GOLDEN = pathlib.Path(__file__).parent / "golden"
CFG = ExperimentConfig(t_rep=3, pop_size=50_000)
# table2's methods with a 15-tree forest
TABLE2_METHODS = (Forest(n_trees=15), SoftImpute(), Pmm())
# 37 replications of 1,000 rows are two full blocks of 16 and a short one of 5
CFG_BLOCKS = replace(CFG, t_rep=37)
DECOMPOSE_ARGV = ["--pop-size", str(CFG.pop_size), "--repeats", "5"]

MANIFEST = GOLDEN / "manifest.json"
MANIFEST_SEEDS = (123, 4242)
# every subcommand and each of its output routes; forest decomposes 5
# times, not 20, because its 20 imputations per cell cost more than the
# rest of the checklist together
MANIFEST_COMMANDS = (
    "table1 --reps 30",
    "table1 --reps 30 --threads 2",
    "table1 --reps 30 --format markdown",
    "table2 --reps 2",
    "table2 --reps 2 --threads 2",
    "figure",
    *(f"decompose --method {m} --repeats 20" for m in ("predict", "draw", "pmm", "softimpute")),
    "decompose --method forest --repeats 5",
    "run --reps 3",
)
RUN_FILES = ("table1.csv", "table2.csv", "figure.csv")


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
        "table2.csv": format_table(_run_grid(CFG, TABLE2_METHODS, threads), "csv"),
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


def _manifest_key(command, seed, name=None):
    key = f"{command} --pop-size 100000 --seed {seed}"
    return key if name is None else f"{key} [{name}]"


def _output_files(command):
    """The files a checklist command writes; None stands for standard output."""
    return RUN_FILES if command.split()[0] == "run" else (None,)


def manifest_digests(command, seed):
    """sha256 of each output of one checklist command, keyed as in the manifest."""
    argv = _manifest_key(command, seed).split()
    if _output_files(command) == (None,):
        outputs = {None: _cli_stdout(argv).encode("ascii")}
    else:
        with tempfile.TemporaryDirectory() as out_dir:
            _cli_stdout([*argv, "--out", out_dir])
            outputs = {name: (pathlib.Path(out_dir) / name).read_bytes() for name in RUN_FILES}
    return {
        _manifest_key(command, seed, name): hashlib.sha256(data).hexdigest()
        for name, data in outputs.items()
    }


def manifest():
    return {
        key: digest
        for seed in MANIFEST_SEEDS
        for command in MANIFEST_COMMANDS
        for key, digest in manifest_digests(command, seed).items()
    }


def _assert_golden(outputs):
    for name, text in outputs.items():
        assert text.encode("ascii") == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize("threads", [1, 2])
def test_tables_match_golden(threads):
    _assert_golden(table_outputs(threads))


def test_figure_and_decompose_match_golden():
    _assert_golden(other_outputs())


@pytest.mark.parametrize("seed", MANIFEST_SEEDS)
@pytest.mark.parametrize("command", MANIFEST_COMMANDS)
def test_cli_outputs_match_manifest(command, seed):
    recorded = json.loads(MANIFEST.read_text(encoding="ascii"))
    digests = manifest_digests(command, seed)
    assert digests == {key: recorded.get(key) for key in digests}


def test_manifest_lists_the_checklist_only():
    recorded = json.loads(MANIFEST.read_text(encoding="ascii"))
    assert set(recorded) == {
        _manifest_key(command, seed, name)
        for seed in MANIFEST_SEEDS
        for command in MANIFEST_COMMANDS
        for name in _output_files(command)
    }


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, text in {**table_outputs(1), **other_outputs()}.items():
        (GOLDEN / name).write_text(text, encoding="ascii", newline="\n")
        print(f"wrote {GOLDEN / name}")
    MANIFEST.write_text(json.dumps(manifest(), indent=2, sort_keys=True) + "\n", encoding="ascii")
    print(f"wrote {MANIFEST}")
