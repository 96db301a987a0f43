"""The benchmark's workloads and the layout each one's output must have.

Every workload is one ``imputebench`` command line at ci scale: a 10^5
population and 1,000-row samples. Reps and repeats are sized so that one
CLI run lasts between about one and ten seconds on a 2-core box, which
lets a measured run hold several CLI runs on different seeds.

This module imports nothing from ``imputebench`` or numpy, so the child
process can import it before it starts timing the program's own import.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

# signal label -> r_squared, in the order the harness reports them
SIGNALS = (("high", 0.8), ("low", 0.2))
MECHANISMS = ("MCAR", "MAR")
PARAM_FIELDS = (
    "mu", "sigma", "p90", "rho", "gamma", "r2_y", "delta", "r2_x",
    "mse_full", "mse_missing",
)


@dataclass(frozen=True)
class Scale:
    pop_size: int
    samples: int
    table1_reps: int
    table2_reps: int
    repeats: int


FULL = Scale(pop_size=100_000, samples=1000, table1_reps=100, table2_reps=1, repeats=10)
# for the benchmark's own tests: every code path, a few seconds in all
TINY = Scale(pop_size=2000, samples=100, table1_reps=2, table2_reps=1, repeats=2)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    threads: int = 1

    @property
    def methods(self) -> tuple[str, ...]:
        if self.command == "table1":
            return ("predict", "draw")
        if self.command == "table2":
            return ("forest", "softimpute", "pmm")
        return ("softimpute",)

    def argv(self, seed: int, scale: Scale) -> list[str]:
        """The imputebench command line of one CLI run."""
        argv = [self.command, "--pop-size", str(scale.pop_size),
                "--samples", str(scale.samples), "--seed", str(seed)]
        if self.command == "decompose":
            return argv + ["--method", "softimpute", "--repeats", str(scale.repeats)]
        reps = scale.table1_reps if self.command == "table1" else scale.table2_reps
        return argv + ["--reps", str(reps), "--threads", str(self.threads)]

    def imputations(self, scale: Scale) -> int:
        """Imputations one CLI run completes: a table replication or a decompose repeat."""
        cells = len(SIGNALS) * len(self.methods) * len(MECHANISMS)
        if self.command == "decompose":
            return cells * scale.repeats
        return cells * (scale.table1_reps if self.command == "table1" else scale.table2_reps)


# why each workload is here, and what it isolates
WORKLOADS = {
    # sample, MAR bisection, OLS and estimate_params; no forest, no ALS
    "table1": Workload("table1", "table1"),
    # about 99% forest: where tree-growing changes show
    "table2": Workload("table2", "table2"),
    # one fixed sample per cell imputed many times: the ALS loop without
    # per-rep sampling, and the low-signal runs that hit max_iter
    "decompose-softimpute": Workload("decompose-softimpute", "decompose"),
    # the only path through the process-pool branch of the harness, which
    # rebuilds populations per cell; 2 workers = nproc of the reference box
    "table1-pool": Workload("table1-pool", "table1", threads=2),
}


def program_seed(bench_seed: int, index: int) -> int:
    """Seed of the index-th CLI run of a benchmark run.

    The first CLI run uses the benchmark seed itself, so seed 123 runs
    ``imputebench ... --seed 123``; later ones get seeds hashed from
    (benchmark seed, index), so one measured run averages over several
    samples instead of timing a single draw.
    """
    if index == 0:
        return bench_seed
    digest = hashlib.sha256(f"{bench_seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")
