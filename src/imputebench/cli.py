"""Command-line entry point.

Subcommands map one-to-one onto harness runs: the two summary tables,
the figure data export, the MSE decomposition, and a combined `run`
that writes all artifacts into a directory. Flags override config-file
values; both override the built-in defaults (population 10^6, sample
1000, 200 replications, seed 123).
"""

from __future__ import annotations

import argparse
import os
import sys

from .harness import (
    ExperimentConfig,
    export_figure_data,
    format_table,
    run_decomposition,
    run_table1,
    run_table2,
)
from .imputers import Draw, Forest, Pmm, Predict, SoftImpute

_DEFAULTS = {"pop_size": 1_000_000, "n_sample": 1000, "t_rep": 200, "base_seed": 123}
_METHODS = {
    "predict": Predict,
    "draw": Draw,
    "pmm": Pmm,
    "softimpute": SoftImpute,
    "forest": Forest,
}


class CliError(Exception):
    """Fatal problem reported as a one-line diagnostic, exit status 1."""


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--pop-size", type=int, default=None, metavar="N",
                     help="population size (default: 1000000)")
    sub.add_argument("--samples", type=int, default=None, metavar="N",
                     help="sample size per replication (default: 1000)")
    sub.add_argument("--reps", type=int, default=None, metavar="T",
                     help="replications per cell (default: 200)")
    sub.add_argument("--seed", type=int, default=None, metavar="S",
                     help="base random seed (default: 123)")
    sub.add_argument("--config", metavar="PATH", default=None,
                     help="flat key = value config file; flags override it")
    sub.add_argument("--out", metavar="PATH", default=None,
                     help="output file (default: standard output)")


def _build_parser() -> argparse.ArgumentParser:
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
        p.add_argument("--threads", type=int, default=1, metavar="W",
                       help="worker process cap for cell parallelism (default: 1)")

    return parser


def _load_config(path: str) -> dict[str, int]:
    """Read `key = value` lines; keys mirror the experiment config fields."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc.strerror}") from exc
    values: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _DEFAULTS:
            raise CliError(
                f"{path}:{lineno}: unknown key {key!r}; expected one of {sorted(_DEFAULTS)}"
            )
        try:
            values[key] = int(value.strip())
        except ValueError as exc:
            raise CliError(f"{path}:{lineno}: {key} needs an integer, got {value.strip()!r}") from exc
    return values


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    merged = dict(_DEFAULTS)
    if args.config is not None:
        merged.update(_load_config(args.config))
    flag_values = {
        "pop_size": args.pop_size,
        "n_sample": args.samples,
        "t_rep": args.reps,
        "base_seed": args.seed,
    }
    merged.update({k: v for k, v in flag_values.items() if v is not None})
    try:
        return ExperimentConfig(**merged)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)


def _dispatch(args: argparse.Namespace) -> int:
    cfg = _experiment_config(args)
    if args.command == "table1":
        _emit(format_table(run_table1(cfg, threads=args.threads), args.format), args.out)
        return 0
    if args.command == "table2":
        _emit(format_table(run_table2(cfg, threads=args.threads), args.format), args.out)
        return 0
    if args.command == "figure":
        _emit(export_figure_data(cfg), args.out)
        return 0
    if args.command == "decompose":
        method = _METHODS[args.method]()
        rows = run_decomposition(cfg, method, args.repeats)
        lines = ["signal,mechanism,bias_sq,variance,noise,total"]
        for signal, mechanism, result in rows:
            lines.append(
                f"{signal},{mechanism},{result.bias_sq:.6f},{result.variance:.6f},"
                f"{result.noise:.6f},{result.total:.6f}"
            )
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    if args.command == "run":
        out_dir = args.out if args.out is not None else "."
        os.makedirs(out_dir, exist_ok=True)
        _emit(format_table(run_table1(cfg, threads=args.threads), "csv"),
              os.path.join(out_dir, "table1.csv"))
        _emit(format_table(run_table2(cfg, threads=args.threads), "csv"),
              os.path.join(out_dir, "table2.csv"))
        _emit(export_figure_data(cfg), os.path.join(out_dir, "figure.csv"))
        return 0
    raise CliError(f"unknown command {args.command!r}")


def parse_and_dispatch(argv=None) -> int:
    """Parse argv and run the chosen subcommand.

    Returns the process exit status: 0 on success, 1 on runtime errors;
    argparse itself exits with 2 on usage errors.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "threads", 1) < 1:
        parser.error(f"argument --threads: must be at least 1, got {args.threads}")
    if getattr(args, "repeats", 2) < 2:
        parser.error(f"argument --repeats: must be at least 2, got {args.repeats}")
    try:
        return _dispatch(args)
    except (CliError, RuntimeError, ValueError, OSError) as exc:
        print(f"imputebench: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(parse_and_dispatch())
