"""Command-line entry point.

Subcommands map one-to-one onto harness runs: the two summary tables,
the figure data export, the MSE decomposition, and a combined `run`
that writes all artifacts into a directory. This module parses, checks
and routes; every output layout is harness's. The run settings are the
fields of harness.ExperimentConfig: each has a flag whose dest is its
name, and a config file on a subcommand takes only the keys of the
flags that subcommand has. Flags override config-file values; both
override ExperimentConfig's defaults. A usage error is reported with
the subcommand's own usage.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from .harness import (
    ExperimentConfig,
    export_figure_data,
    format_decomposition,
    format_table,
    run_decomposition,
    run_table1,
    run_table2,
)
from .imputers import Draw, Forest, Pmm, Predict, SoftImpute

_CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig))
_METHODS = {m.label: m for m in (Predict, Draw, Pmm, SoftImpute, Forest)}
_TABLES = {"table1": run_table1, "table2": run_table2}


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--pop-size", dest="pop_size", type=int, default=None, metavar="N",
                     help=f"population size (default: {ExperimentConfig.pop_size})")
    sub.add_argument("--samples", dest="n_sample", type=int, default=None, metavar="N",
                     help=f"sample size per replication (default: {ExperimentConfig.n_sample})")
    sub.add_argument("--seed", dest="base_seed", type=int, default=None, metavar="S",
                     help=f"base random seed (default: {ExperimentConfig.base_seed})")
    sub.add_argument("--config", metavar="PATH", default=None,
                     help="flat key = value config file; flags override it")
    sub.add_argument("--out", metavar="PATH", default=None,
                     help="output file (default: standard output)")


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each subcommand's parser by name."""
    parser = argparse.ArgumentParser(
        prog="imputebench",
        description="Monte Carlo test bench for downstream effects of single imputation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t1 = sub.add_parser("table1", help="predict and draw versus ground truth")
    t2 = sub.add_parser("table2", help="forest, softimpute and pmm versus ground truth")
    for p in (t1, t2):
        _add_common_flags(p)
        p.add_argument("--format", choices=("csv", "markdown"), default="csv",
                       help="output format (default: csv)")

    fig = sub.add_parser("figure", help="scatter data of one sample completed twice")
    _add_common_flags(fig)

    dec = sub.add_parser("decompose", help="bias/variance/noise split of one method")
    _add_common_flags(dec)
    dec.add_argument("--method", choices=sorted(_METHODS), default="draw",
                     help="imputation method to decompose (default: draw)")
    dec.add_argument("--repeats", type=int, default=100, metavar="R",
                     help="imputations of the same incomplete sample (default: 100)")

    runp = sub.add_parser("run", help="write table1, table2 and figure CSVs to a directory")
    _add_common_flags(runp)

    for p in (t1, t2, runp):
        p.add_argument("--reps", dest="t_rep", type=int, default=None, metavar="T",
                       help=f"replications per cell (default: {ExperimentConfig.t_rep})")
        p.add_argument("--threads", type=int, default=1, metavar="W",
                       help="worker processes, at most one per signal level (default: 1)")

    return parser, sub.choices


def _load_config(path: str, keys: list[str]) -> dict[str, int]:
    """Read `key = value` lines; keys is what the subcommand takes of _CONFIG_KEYS.

    A byte-order mark is skipped, and a key may be set once.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, int] = {}
    set_on: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in keys:
            raise ValueError(
                f"{path}:{lineno}: unknown key {key!r}; expected one of {sorted(keys)}"
            )
        if key in set_on:
            raise ValueError(f"{path}:{lineno}: key {key!r} already set on line {set_on[key]}")
        set_on[key] = lineno
        try:
            values[key] = int(value.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {key} needs an integer, got {value.strip()!r}") from exc
    return values


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    """The settings of one run: the subcommand's flags over its config file."""
    keys = [k for k in _CONFIG_KEYS if hasattr(args, k)]
    merged = {} if args.config is None else _load_config(args.config, keys)
    merged.update({k: v for k in keys if (v := getattr(args, k)) is not None})
    return ExperimentConfig(**merged)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)


def _dispatch(args: argparse.Namespace) -> int:
    cfg = _experiment_config(args)
    if args.command in _TABLES:
        _emit(format_table(_TABLES[args.command](cfg, threads=args.threads), args.format), args.out)
    elif args.command == "figure":
        _emit(export_figure_data(cfg), args.out)
    elif args.command == "decompose":
        rows = run_decomposition(cfg, _METHODS[args.method](), args.repeats)
        _emit(format_decomposition(rows), args.out)
    else:  # run
        out_dir = args.out if args.out is not None else "."
        os.makedirs(out_dir, exist_ok=True)
        for name, run_table in _TABLES.items():
            _emit(format_table(run_table(cfg, threads=args.threads), "csv"),
                  os.path.join(out_dir, f"{name}.csv"))
        _emit(export_figure_data(cfg), os.path.join(out_dir, "figure.csv"))
    return 0


def parse_and_dispatch(argv=None) -> int:
    """Parse argv and run the chosen subcommand.

    Returns the process exit status: 0 on success, 1 on runtime errors
    (an allocation too large for memory among them); argparse itself
    exits with 2 on usage errors.
    """
    parser, subparsers = _build_parser()
    args, unknown = parser.parse_known_args(argv)
    usage_error = subparsers[args.command].error
    if unknown:
        usage_error(f"unrecognized arguments: {' '.join(unknown)}")
    if getattr(args, "threads", 1) < 1:
        usage_error(f"argument --threads: must be at least 1, got {args.threads}")
    if getattr(args, "repeats", 2) < 2:
        usage_error(f"argument --repeats: must be at least 2, got {args.repeats}")
    try:
        return _dispatch(args)
    except (RuntimeError, ValueError, OSError, MemoryError) as exc:
        print(f"imputebench: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(parse_and_dispatch())


if __name__ == "__main__":
    main()
