"""One CLI run of a workload in a fresh interpreter: timed, then checked.

Prints one JSON object on standard output. ``run.py`` starts this script
once per CLI run with ``src`` on PYTHONPATH; it is not meant to be run by
hand, but can be:

    PYTHONPATH=src python3 bench/child.py --workload table1 --seed 123 --out t1.csv

Timed phases, in order: the import of ``imputebench.cli``, the build of
the workload's two populations with ``generate_population`` (together
the set-up), and ``parse_and_dispatch`` itself. With ``--spans PATH`` the
dispatch runs under the tracer and the spans are written to PATH.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import sys
import time

from workloads import FULL, SIGNALS, TINY, WORKLOADS


def build_populations(seed: int, pop_size: int) -> dict:
    """The populations the harness builds for ``seed``, from the public API.

    The harness gives the population of the i-th signal label in sorted
    order the stream (seed, substream_id(i, 0, POPULATION)).
    """
    from imputebench.datagen import PopulationSpec, generate_population
    from imputebench.stochastics import Purpose, SeedSpec, make_stream, substream_id

    r2_of = dict(SIGNALS)
    populations = {}
    for index, label in enumerate(sorted(r2_of)):
        stream = make_stream(SeedSpec(seed, substream_id(index, 0, Purpose.POPULATION)))
        spec = PopulationSpec(r_squared=r2_of[label], size=pop_size)
        populations[label] = generate_population(spec, stream)
    return populations


def peak_rss_mb() -> float:
    """Own peak RSS plus the largest waited-for child's (pool workers)."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="the program's --seed")
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="time the set-up and exit without running the CLI")
    parser.add_argument("--out", help="file the CLI writes its output to")
    parser.add_argument("--spans", help="trace the CLI run and write spans here")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    scale = TINY if args.tiny else FULL

    t0 = time.perf_counter()
    from imputebench import cli
    t1 = time.perf_counter()
    populations = build_populations(args.seed, scale.pop_size)
    t2 = time.perf_counter()
    result = {"import_s": t1 - t0, "populations_s": t2 - t1}
    if args.setup_only:
        print(json.dumps(result))
        return 0
    if args.out is None:
        parser.error("--out is required unless --setup-only is given")

    tracer = None
    if args.spans:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    argv = workload.argv(args.seed, scale) + ["--out", args.out]
    t3 = time.perf_counter()
    status = cli.parse_and_dispatch(argv)
    t4 = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.spans)
    result.update(dispatch_s=t4 - t3, status=status, peak_rss_mb=peak_rss_mb())

    if status != 0:
        result["problems"] = [f"imputebench exited with status {status}"]
    else:
        from checks import check_output, truth_values

        with open(args.out, "r", encoding="ascii") as fh:
            text = fh.read()
        result["sha256"] = hashlib.sha256(text.encode("ascii")).hexdigest()
        truth = {} if workload.command == "decompose" else truth_values(populations)
        result["problems"] = check_output(workload, text, truth)

    import numpy
    import scipy

    result["versions"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
