"""The imputebench benchmark: one workload, measured end to end or traced.

    python3 bench/run.py --workload table1 --seed 123 --seconds 30 --trace 0

Each CLI run starts a fresh interpreter (``child.py``) that imports
``imputebench.cli``, builds the workload's populations and calls
``parse_and_dispatch`` with the workload's command line, then checks the
output. CLI runs repeat on seeds derived from ``--seed`` until about
``--seconds`` have passed. The last line of standard output is the
result as one JSON object; the lines before it report every CLI run,
every metric with its unit, and a context block.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs each
seed twice, untraced and traced, reports the per-layer metrics from the
traced runs, the tracing overhead, and fails a pair whose two outputs
differ by a byte.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from tracing import NEEDS_METHOD, PER_LAYER_UNITS, layer_metrics, read_spans
from workloads import FULL, TINY, WORKLOADS, program_seed

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
DIGESTS = BENCH / "digests.json"
# set-up-only interpreters started before the CLI runs, so that setup_s is
# a median of several samples even when a run holds only two CLI runs
SETUP_PROBES = 3
# CLI runs of a serial workload go in this many concurrent lanes, each on
# its own seeds, so a run averages over twice the inputs; a pool workload
# already fills the cores and gets NPROC // threads lanes
NPROC = 2
# a benchmark run must end within 180 s whatever a child does
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "imputations_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}


class Runner:
    """Starts child interpreters for one workload and keeps their results."""

    def __init__(self, workload: str, tiny: bool, work_dir: Path):
        self.workload = workload
        self.tiny = tiny
        self.work_dir = work_dir
        self.started = time.perf_counter()
        self.results: list[dict] = []

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if r["problems"])

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def child(self, seed: int, tag: str, setup_only: bool = False,
              spans: Path | None = None) -> dict:
        """One child interpreter's result; ``problems`` is empty when it passed."""
        cmd = [sys.executable, str(BENCH / "child.py"),
               "--workload", self.workload, "--seed", str(seed)]
        if self.tiny:
            cmd.append("--tiny")
        if setup_only:
            cmd.append("--setup-only")
        else:
            cmd += ["--out", str(self.work_dir / f"{tag}.out")]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))
        began = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=max(1.0, DEADLINE_S - self.elapsed()),
            )
        except subprocess.TimeoutExpired:
            result = {"problems": ["timed out"]}
        else:
            if proc.returncode != 0:
                last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
                result = {"problems": [f"child exited with status {proc.returncode}: {last}"]}
            else:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                result.setdefault("problems", [])
        result.update(seed=seed, tag=tag, elapsed_s=time.perf_counter() - began)
        self.results.append(result)
        return result

    def more(self, seconds: int, last_s: float) -> bool:
        """Whether to start another unit of work lasting about ``last_s``."""
        return self.elapsed() + last_s / 2 < seconds and self.elapsed() + last_s < DEADLINE_S


def load_digests() -> dict:
    with open(DIGESTS, "r", encoding="utf-8") as fh:
        return json.load(fh)


def digest_status(digests: dict, workload: str, result: dict) -> str:
    """Digests are recorded per subcommand: table1-pool must print table1's bytes."""
    recorded = digests.get(WORKLOADS[workload].command, {}).get(str(result["seed"]))
    if recorded is None:
        return "unrecorded"
    return "match" if recorded == result["sha256"] else "CHANGED"


def report_child(digests: dict, workload: str, result: dict) -> None:
    parts = [f"cli-run {result['tag']}", f"seed={result['seed']}"]
    if "dispatch_s" in result:
        parts.append(f"wall_s={result['import_s'] + result['dispatch_s']:.4f}")
    if "sha256" in result:
        parts.append(f"sha256={result['sha256']}")
        parts.append(f"digest={digest_status(digests, workload, result)}")
    parts.extend(f"FAILED: {p}" for p in result["problems"])
    print(" ".join(parts))


def measured_run(runner: Runner, bench_seed: int, seconds: int, digests: dict):
    """End-to-end metrics, tracing off."""
    workload = WORKLOADS[runner.workload]
    setups = []
    for k in range(SETUP_PROBES):
        probe = runner.child(program_seed(bench_seed, k), f"setup{k}", setup_only=True)
        if not probe["problems"]:
            setups.append(probe["import_s"] + probe["populations_s"])

    lanes = max(1, NPROC // workload.threads)

    def lane(first: int) -> list[dict]:
        done = []
        for index in itertools.count(first, lanes):
            done.append(runner.child(program_seed(bench_seed, index), str(index)))
            if not runner.more(seconds, done[-1]["elapsed_s"]):
                return done

    with ThreadPoolExecutor(max_workers=lanes) as pool:
        runs = sorted(itertools.chain.from_iterable(pool.map(lane, range(lanes))),
                      key=lambda r: int(r["tag"]))
    for result in runs:
        report_child(digests, runner.workload, result)
    ok = [r for r in runs if not r["problems"]]
    setups += [r["import_s"] + r["populations_s"] for r in ok]
    imputations = workload.imputations(TINY if runner.tiny else FULL) * len(ok)
    metrics = {
        "wall_s": statistics.median(r["import_s"] + r["dispatch_s"] for r in ok) if ok else 0.0,
        "setup_s": statistics.median(setups) if setups else 0.0,
        "imputations_per_s": imputations / sum(r["dispatch_s"] for r in ok) if ok else 0.0,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok) if ok else 0.0,
        "ok_frac": (runner.attempted - runner.failed) / runner.attempted,
    }
    samples = {"cli_runs": len(ok), "lanes": lanes, "setup_samples": len(setups),
               "imputations": imputations}
    return metrics, END_TO_END_UNITS, samples, ok


def traced_run(runner: Runner, bench_seed: int, seconds: int, digests: dict):
    """Per-layer metrics from traced CLI runs, each paired with an untraced one."""
    workload = WORKLOADS[runner.workload]
    span_dir = ROOT / ".bench_trace" / runner.workload
    shutil.rmtree(span_dir, ignore_errors=True)
    span_dir.mkdir(parents=True)
    traced_spans, overheads, ok = [], [], []
    pair = 0
    while True:
        seed = program_seed(bench_seed, pair)
        began = time.perf_counter()
        results = {}
        # alternate which side goes first, so neither always runs cold
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            tag = f"{pair}{'t' if traced else 'u'}"
            spans = span_dir / f"{pair}.jsonl" if traced else None
            results[traced] = runner.child(seed, tag, spans=spans)
            report_child(digests, runner.workload, results[traced])
        plain, traced_result = results[False], results[True]
        if not plain["problems"] and not traced_result["problems"]:
            if plain["sha256"] != traced_result["sha256"]:
                traced_result["problems"].append("traced output differs from untraced output")
                print(f"cli-run {pair}t FAILED: traced output differs from untraced output")
            else:
                traced_spans.append(read_spans(str(span_dir / f"{pair}.jsonl")))
                overheads.append(
                    traced_result["import_s"] + traced_result["dispatch_s"]
                    - plain["import_s"] - plain["dispatch_s"]
                )
                ok.append(plain)
        pair += 1
        if not runner.more(seconds, time.perf_counter() - began):
            break
    metrics, missing = layer_metrics(traced_spans)
    if workload.threads > 1:
        print(f"trace-scope: the CLI runs cells in {workload.threads} pool worker processes, "
              "which the tracer does not reach; every per-layer number covers the parent "
              "process only")
    for name in missing:
        method = next((m for p, m in NEEDS_METHOD.items() if name.startswith(p)), None)
        if workload.threads > 1 and method in (None, *workload.methods):
            reason = "ran only in pool worker processes"
        else:
            reason = "not exercised by this workload"
        print(f"trace-unavailable {name}: {reason}; reported as 0")
    if overheads:
        untraced = statistics.median(r["import_s"] + r["dispatch_s"] for r in ok)
        overhead = statistics.median(overheads)
        print(f"trace-overhead wall_s traced - untraced = {overhead:.4f} s "
              f"({100 * overhead / untraced:.1f}% of {untraced:.4f} s), "
              f"median of {len(overheads)} pairs")
    samples = {"traced_cli_runs": len(traced_spans), "spans": sum(map(len, traced_spans))}
    return metrics, PER_LAYER_UNITS, samples, ok


def git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def context(args, samples: dict, ok: list[dict]) -> dict:
    sources = sorted((ROOT / "src" / "imputebench").glob("*.py"))
    return {
        "workload": args.workload,
        "argv": WORKLOADS[args.workload].argv(args.seed, TINY if args.tiny else FULL),
        "seed": args.seed,
        "tiny": args.tiny,
        "src_lines": sum(p.read_bytes().count(b"\n") for p in sources),
        "git_revision": git_revision(),
        "versions": ok[0]["versions"] if ok else {"python": platform.python_version()},
        "nproc": len(os.sched_getaffinity(0)),
        **samples,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="imputebench benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed; the first CLI run uses it as the program's --seed")
    parser.add_argument("--seconds", type=int, required=True, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True,
                        help="0: end-to-end metrics; 1: per-layer metrics from traced runs")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be non-negative and --seconds at least 1")
    if not (ROOT / "src" / "imputebench" / "cli.py").is_file():
        print(f"bench: no imputebench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work_dir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    runner = Runner(args.workload, args.tiny, work_dir)
    digests = load_digests()
    try:
        run = traced_run if args.trace else measured_run
        metrics, units, samples, ok = run(runner, args.seed, args.seconds, digests)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(json.dumps({"context": context(args, samples, ok)}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
