"""Spans around the calls into each imputebench module, and the per-layer
metrics computed from them.

The tracer edits nothing under ``src/``: after import it replaces every
public function of each layer module, at every name a caller in the
package binds it to, with a wrapper that records a span. A span is
``[name, start, end, parent, rep, detail]``: the layer-qualified function
name, perf_counter seconds, the index of the enclosing span (-1 for the
root), the replication id (incremented at each ``draw_sample``), and a
small value read from the result where a metric needs one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict

LAYERS = (
    "stochastics", "datagen", "ampute", "linmodel", "imputers",
    "forest", "downstream", "harness", "cli",
)

# values kept from a call's result; a result of another shape gives None
_DETAILS = {
    "forest.fit_tree": lambda tree: int(tree.n_nodes),
    "imputers.als_matrix_complete": lambda out: [len(out[1]) - 1, bool(out[2])],
}


class Tracer:
    """Records spans in memory while installed; ``write`` saves them."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._rep = 0
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"imputebench.{layer}")
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{name}")
        modules = [m for n, m in sys.modules.items()
                   if n == "imputebench" or n.startswith("imputebench.")]
        for module in modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((module, name, obj))
                    setattr(module, name, wrappers[obj])

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._restore):
            setattr(module, name, obj)
        self._restore.clear()

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        detail_of = _DETAILS.get(name)
        counts_rep = name == "datagen.draw_sample"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counts_rep:
                self._rep += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._rep, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if detail_of is not None:
                try:
                    span[5] = detail_of(result)
                except (AttributeError, TypeError, IndexError):
                    pass
            return result

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path: str) -> list[list]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


# name -> unit of every per-layer metric, in report order
PER_LAYER_UNITS = {
    "forest.impute_ms.p50": "ms",
    "forest.impute_ms.p90": "ms",
    "forest.fits_per_impute": "count",
    "forest.useful_fit_frac": "fraction",
    "forest.fit_tree_ms.p50": "ms",
    "forest.fit_tree_calls": "count",
    "forest.tree_nodes.mean": "count",
    "forest.predict_forest_ms.p50": "ms",
    "imputers.softimpute_ms.p50": "ms",
    "imputers.softimpute_ms.p90": "ms",
    "imputers.als_iters.p50": "count",
    "imputers.als_iters.max": "count",
    "imputers.als_nonconverged_frac": "fraction",
    "imputers.predict_ms.p50": "ms",
    "imputers.draw_ms.p50": "ms",
    "imputers.pmm_ms.p50": "ms",
    "datagen.draw_sample_ms.p50": "ms",
    "ampute.ampute_ms.p50": "ms",
    "ampute.solve_shift_calls": "count",
    "linmodel.fit_ols_ms.p50": "ms",
    "linmodel.fit_ols_calls": "count",
    "downstream.estimate_params_ms.p50": "ms",
    "stochastics.make_stream_calls": "count",
    "datagen.generate_population_s": "s",
    "harness.population_builds": "count",
    "harness.rep_ms.p50": "ms",
    "harness.rep_ms.p90": "ms",
    "cli.format_table_ms": "ms",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}


# metric name prefix -> the imputation method whose calls it measures
NEEDS_METHOD = {
    "forest.": "forest",
    "imputers.softimpute": "softimpute",
    "imputers.als": "softimpute",
    "imputers.predict": "predict",
    "imputers.draw": "draw",
    "imputers.pmm": "pmm",
}


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics, as numpy's default."""
    ordered = sorted(values)
    h = (len(ordered) - 1) * q
    lo = int(h)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (h - lo) * (ordered[hi] - ordered[lo])


def _run_totals(spans: list[list]) -> dict[str, float]:
    """Per-CLI-run totals: call counts, seconds in a function, layer self time."""
    totals: dict[str, float] = defaultdict(float)
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for (name, start, end, _, _, _), covered in zip(spans, child_time):
        totals[f"calls:{name}"] += 1
        totals[f"seconds:{name}"] += end - start
        totals[f"self:{name.split('.')[0]}"] += end - start - covered
    return totals


def _rep_ms(spans: list[list]) -> list[float]:
    """Start of draw_sample to the return of that replication's estimate_params."""
    starts, ends = {}, {}
    for name, start, end, _, rep, _ in spans:
        if name == "datagen.draw_sample":
            starts[rep] = start
        elif name == "downstream.estimate_params" and rep in starts and rep not in ends:
            ends[rep] = end
    return [1000.0 * (ends[r] - starts[r]) for r in ends]


def layer_metrics(runs: list[list[list]]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of the traced CLI runs, and the names nothing measured.

    Durations are pooled over every call in every run; per-run totals
    (counts, seconds, self time) are the median over runs. A metric with
    no samples reads 0 and its name is returned in the second value.
    """
    durations: dict[str, list[float]] = defaultdict(list)
    details: dict[str, list] = defaultdict(list)
    rep_ms: list[float] = []
    kept_forests = 0
    for spans in runs:
        fitted_under = set()
        for name, start, end, parent, _, detail in spans:
            durations[name].append(1000.0 * (end - start))
            if detail is not None:
                details[name].append(detail)
            if name == "forest.fit_forest" and parent >= 0:
                fitted_under.add(parent)
        # one forest per imputation that fitted any is the one it returns
        kept_forests += sum(1 for i in fitted_under if spans[i][0] == "forest.impute_forest")
        rep_ms.extend(_rep_ms(spans))
    per_run = [_run_totals(spans) for spans in runs]

    def run_median(key: str) -> float | None:
        values = [t[key] for t in per_run if key in t]
        return statistics.median(values) if values else None

    def dist(name: str, q: float) -> float | None:
        return percentile(durations[name], q) if durations[name] else None

    def ratio(num: float, den: float) -> float | None:
        return num / den if den else None

    n_fits = len(durations["forest.fit_forest"])
    n_impute = len(durations["forest.impute_forest"])
    als = [d for d in details["imputers.als_matrix_complete"] if isinstance(d, list)]
    nodes = details["forest.fit_tree"]
    values = {
        "forest.impute_ms.p50": dist("forest.impute_forest", 0.5),
        "forest.impute_ms.p90": dist("forest.impute_forest", 0.9),
        "forest.fits_per_impute": ratio(n_fits, n_impute),
        "forest.useful_fit_frac": ratio(kept_forests, n_fits),
        "forest.fit_tree_ms.p50": dist("forest.fit_tree", 0.5),
        "forest.fit_tree_calls": run_median("calls:forest.fit_tree"),
        "forest.tree_nodes.mean": ratio(sum(nodes), len(nodes)),
        "forest.predict_forest_ms.p50": dist("forest.predict_forest", 0.5),
        "imputers.softimpute_ms.p50": dist("imputers.impute_softimpute", 0.5),
        "imputers.softimpute_ms.p90": dist("imputers.impute_softimpute", 0.9),
        "imputers.als_iters.p50": percentile([d[0] for d in als], 0.5) if als else None,
        "imputers.als_iters.max": max(d[0] for d in als) if als else None,
        "imputers.als_nonconverged_frac": ratio(sum(1 for d in als if not d[1]), len(als)),
        "imputers.predict_ms.p50": dist("imputers.impute_predict", 0.5),
        "imputers.draw_ms.p50": dist("imputers.impute_draw", 0.5),
        "imputers.pmm_ms.p50": dist("imputers.impute_pmm", 0.5),
        "datagen.draw_sample_ms.p50": dist("datagen.draw_sample", 0.5),
        "ampute.ampute_ms.p50": dist("ampute.ampute", 0.5),
        "ampute.solve_shift_calls": run_median("calls:ampute.solve_shift"),
        "linmodel.fit_ols_ms.p50": dist("linmodel.fit_ols", 0.5),
        "linmodel.fit_ols_calls": run_median("calls:linmodel.fit_ols"),
        "downstream.estimate_params_ms.p50": dist("downstream.estimate_params", 0.5),
        "stochastics.make_stream_calls": run_median("calls:stochastics.make_stream"),
        "datagen.generate_population_s": run_median("seconds:datagen.generate_population"),
        "harness.population_builds": run_median("calls:datagen.generate_population"),
        "harness.rep_ms.p50": percentile(rep_ms, 0.5) if rep_ms else None,
        "harness.rep_ms.p90": percentile(rep_ms, 0.9) if rep_ms else None,
        "cli.format_table_ms": dist("harness.format_table", 0.5),
        **{f"{layer}.self_s": run_median(f"self:{layer}") for layer in LAYERS},
    }
    missing = [name for name, value in values.items() if value is None]
    return {name: (0.0 if v is None else v) for name, v in values.items()}, missing
