"""Tests of the benchmark itself (not collected by the repo's test suite).

    python3 -m pytest bench/test_bench.py

The tiny mode runs every workload on tiny inputs, so these finish in
well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from checks import check_output, truth_values  # noqa: E402
from child import build_populations  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(workload: str, trace: int) -> dict:
    proc = _bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace, group):
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def _tiny_output(tmp_path: Path, workload: str, seed: int = 9) -> tuple[str, dict]:
    from imputebench.cli import parse_and_dispatch

    out = tmp_path / f"{workload}.out"
    argv = WORKLOADS[workload].argv(seed, TINY) + ["--out", str(out)]
    assert parse_and_dispatch(argv) == 0
    truth = truth_values(build_populations(seed, TINY.pop_size))
    return out.read_text(), truth


def _replace_field(text: str, line: int, field: int, value: str) -> str:
    lines = text.split("\n")
    cells = lines[line].split(",")
    cells[field] = value
    lines[line] = ",".join(cells)
    return "\n".join(lines)


def _drop_line(text: str, line: int) -> str:
    lines = text.split("\n")
    del lines[line]
    return "\n".join(lines)


@pytest.mark.parametrize("workload", ["table1", "table2"])
def test_table_checks_catch_corruption(tmp_path, workload):
    text, truth = _tiny_output(tmp_path, workload)
    w = WORKLOADS[workload]
    assert check_output(w, text, truth) == []
    lines = text.split("\n")
    corrupted = {
        "nan cell": _replace_field(text, 3, 5, "nan"),
        "inf cell": _replace_field(text, 2, 4, "inf"),
        "missing row": _drop_line(text, 4),
        "missing last row": _drop_line(text, len(lines) - 2),
        "swapped rows": "\n".join(lines[:2] + [lines[3], lines[2]] + lines[4:]),
        "wrong truth value": _replace_field(text, 1, 4, "9.999"),
        "extra column": _replace_field(text, 2, 4, "0.100,0.200"),
        "renamed method": text.replace(w.methods[0], "other", 1),
        "no final newline": text[:-1],
    }
    for what, bad in corrupted.items():
        assert check_output(w, bad, truth), what


def test_decompose_checks_catch_corruption(tmp_path):
    text, _ = _tiny_output(tmp_path, "decompose-softimpute")
    w = WORKLOADS["decompose-softimpute"]
    assert check_output(w, text, {}) == []
    corrupted = {
        "nan cell": _replace_field(text, 1, 2, "nan"),
        "negative component": _replace_field(text, 2, 3, "-0.001000"),
        "wrong noise": _replace_field(text, 3, 4, "0.500000"),
        "missing row": _drop_line(text, 2),
    }
    for what, bad in corrupted.items():
        assert check_output(w, bad, {}), what


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "table1", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
