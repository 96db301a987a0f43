"""Output checks for one CLI run of a workload.

The layouts are written out here rather than taken from the program, so
a change that drops, adds or reorders a row or column is caught.
"""

from __future__ import annotations

import math

from workloads import MECHANISMS, PARAM_FIELDS, SIGNALS, Workload

TABLE_HEADER = "signal,method,mechanism," + ",".join(PARAM_FIELDS)
DECOMPOSE_HEADER = "signal,mechanism,bias_sq,variance,noise,total"


def expected_keys(workload: Workload) -> list[tuple[str, ...]]:
    """Leading fields of every data row, in order."""
    if workload.command == "decompose":
        return [(signal, mech) for signal, _ in SIGNALS for mech in MECHANISMS]
    keys = []
    for signal, _ in SIGNALS:
        keys.append((signal, "truth", "none"))
        keys.extend((signal, m, mech) for m in workload.methods for mech in MECHANISMS)
    return keys


def truth_values(populations) -> dict[str, str]:
    """The truth row values the table must print, from rebuilt populations.

    ``populations`` maps a signal label to its population Dataset.
    """
    import numpy as np
    from imputebench.ampute import CompletedDataset
    from imputebench.downstream import estimate_params

    rows = {}
    for signal, pop in populations.items():
        completed = CompletedDataset(
            data=pop, imputed_mask=np.zeros(len(pop), dtype=bool), method=None
        )
        values = estimate_params(completed, pop).as_array()
        rows[signal] = ",".join(f"{v:.3f}" for v in values)
    return rows


def check_output(workload: Workload, text: str, truth: dict[str, str]) -> list[str]:
    """Problems with one CLI run's output; an empty list means it passed."""
    if not text.endswith("\n"):
        return ["output does not end with a newline"]
    lines = text[:-1].split("\n")
    decompose = workload.command == "decompose"
    header = DECOMPOSE_HEADER if decompose else TABLE_HEADER
    if lines[0] != header:
        return [f"header {lines[0]!r} != {header!r}"]
    keys = expected_keys(workload)
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(keys):
        return [f"{len(rows)} data rows, expected {len(keys)}"]
    n_keys = len(keys[0])
    n_values = len(header.split(",")) - n_keys
    problems = []
    for lineno, (row, key) in enumerate(zip(rows, keys), start=2):
        if tuple(row[:n_keys]) != key or len(row) != n_keys + n_values:
            problems.append(f"line {lineno}: {','.join(row)!r} does not match {key}")
            continue
        try:
            values = [float(v) for v in row[n_keys:]]
        except ValueError:
            problems.append(f"line {lineno}: a value is not a number")
            continue
        if not all(math.isfinite(v) for v in values):
            problems.append(f"line {lineno}: non-finite value")
            continue
        if decompose:
            problems.extend(_check_decompose_row(lineno, key, row[n_keys:], values))
        elif key[1] == "truth" and ",".join(row[n_keys:]) != truth[key[0]]:
            problems.append(
                f"line {lineno}: truth row differs from estimate_params on the "
                f"rebuilt population ({truth[key[0]]})"
            )
    return problems


def _check_decompose_row(lineno: int, key, fields: list[str], values: list[float]) -> list[str]:
    problems = []
    if min(values) < 0:
        problems.append(f"line {lineno}: negative decomposition component")
    # the generator's irreducible noise is exactly 1 - r_squared
    noise = f"{1.0 - dict(SIGNALS)[key[0]]:.6f}"
    if fields[2] != noise:
        problems.append(f"line {lineno}: noise {fields[2]} != {noise}")
    return problems
