"""Record the sha256 of each workload's output into digests.json.

    PYTHONPATH=src python3 bench/record_digests.py --seeds 123 4242

For every subcommand and benchmark seed, runs the first CLI runs the
benchmark would make (their program seeds come from
``workloads.program_seed``) and stores each output's digest under the
subcommand and program seed; ``table1-pool`` is checked against the
``table1`` digests, because ``--threads`` cannot change a byte. Run it
when a change moves numbers on purpose; a benchmark run only reports
digest changes, it never fails on them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from workloads import FULL, WORKLOADS, program_seed

DIGESTS = Path(__file__).resolve().parent / "digests.json"
# at least as many CLI runs as one 30-second benchmark run makes
CLI_RUNS = {"table1": 40, "table2": 8, "decompose": 70}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    from imputebench.cli import parse_and_dispatch

    digests: dict[str, dict[str, str]] = {}
    with tempfile.TemporaryDirectory(dir=DIGESTS.parent.parent) as tmp:
        out = Path(tmp) / "out"
        for workload in WORKLOADS.values():
            name = workload.command
            if name in digests:
                continue
            table = digests.setdefault(name, {})
            for bench_seed in args.seeds:
                for index in range(CLI_RUNS[name]):
                    seed = program_seed(bench_seed, index)
                    if parse_and_dispatch(workload.argv(seed, FULL) + ["--out", str(out)]) != 0:
                        print(f"{name} seed {seed} failed", file=sys.stderr)
                        return 1
                    table[str(seed)] = hashlib.sha256(out.read_bytes()).hexdigest()
            print(f"{name}: {len(table)} digests", flush=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
