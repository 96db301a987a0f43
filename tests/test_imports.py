"""The package's module graph, the one regression solve, the one
amputation entry, the one stream-key kernel, the one module of output
layouts and the harness's lack of module state, read from the source,
and what importing the CLI loads.

Each module of src/imputebench is parsed, not imported, so these tests
see the import statements and names as written. No module has an
``if TYPE_CHECKING:`` block, so every import statement is an edge of the
runtime graph. The last tests import the CLI in a fresh interpreter and
read its sys.modules.
"""

import ast
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import imputebench
from imputebench.ampute import CompletedDataset

SRC = Path(imputebench.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


def _imported_modules(tree: ast.Module) -> set[str]:
    """The package modules a module imports, relatively or by absolute name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1 or node.module == "imputebench":
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("imputebench."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("imputebench."))
    return found & MODULES.keys()


GRAPH = {name: _imported_modules(tree) for name, tree in MODULES.items()}


def _cycle(graph: dict[str, set[str]]) -> list[str]:
    """One import cycle of graph as a path that ends where it starts, or []."""
    done, path = set(), []

    def visit(name):
        if name in path:
            return path[path.index(name):] + [name]
        if name in done:
            return []
        path.append(name)
        for dep in sorted(graph[name]):
            cycle = visit(dep)
            if cycle:
                return cycle
        path.pop()
        done.add(name)
        return []

    for name in sorted(graph):
        cycle = visit(name)
        if cycle:
            return cycle
    return []


def test_the_guard_sees_the_known_imports():
    assert "datagen" in GRAPH["linmodel"]
    assert {"linmodel", "stochastics"} <= GRAPH["imputers"]
    assert {"datagen", "stochastics"} == GRAPH["ampute"]
    # decompose_mse names its method's type in its docstring, not by an import
    assert {"ampute", "datagen", "stochastics"} == GRAPH["downstream"]
    # CompletedDataset takes a method argument but stores only what estimates read
    assert [f.name for f in fields(CompletedDataset)] == ["data", "imputed_mask"]
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]


def test_module_graph_has_no_cycle():
    assert _cycle(GRAPH) == []


def test_no_annotation_only_imports():
    # an import under ``if TYPE_CHECKING:`` would be an edge the graph above misses
    guarded = [
        module for module, tree in MODULES.items() for node in ast.walk(tree)
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.dump(node.test)
    ]
    assert guarded == []


def _readers(name: str, modules: dict[str, ast.Module] = MODULES) -> set[str]:
    """Where a name is loaded in the package: module.function for a load
    in a function (its innermost def), module.Class for one in a class
    body, and module for one at module level; a lambda reads for the
    scope it sits in."""
    readers = set()

    def visit(node, scope):
        if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load):
            readers.add(scope)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope.split('.')[0]}.{node.name}"
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for module, tree in modules.items():
        visit(tree, module)
    return readers


def test_readers_sees_every_scope():
    tree = ast.parse(
        "x = SEEN\n"
        "class C:\n    y = SEEN\n    def m(self):\n        return SEEN\n"
        "f = lambda: SEEN\n"
        "def g():\n    def inner():\n        return SEEN\n"
        "SEEN = 1\n"
    )
    assert _readers("SEEN", {"mod": tree}) == {"mod", "mod.C", "mod.m", "mod.inner"}


def test_one_function_solves_every_regression():
    # the collinearity floor and Cramer's determinant live in datagen._slopes alone
    assert _readers("_COLLINEAR_FLOOR") == {"datagen._slopes"}
    assert _readers("_slopes") == {"datagen._moment_regression", "linmodel.fit_ols"}
    defined = [
        module for module, tree in MODULES.items() for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "SingularDesignError"
    ]
    assert defined == ["datagen"]


def test_one_function_amputes_a_block():
    # validated columns skip the container's checks only where they are built
    trusted = _readers("_trusted")
    assert "ampute._ampute_block" in trusted
    assert {reader.split(".")[0] for reader in trusted} == {"datagen", "ampute"}
    # the one-replication API and the harness's one sample-and-mask call
    assert _readers("_ampute_block") == {"ampute.ampute", "harness._masked_block"}
    # decompose_mse scores against the truth_y of the block it imputes
    (decompose,) = (
        node for node in ast.walk(MODULES["downstream"])
        if isinstance(node, ast.FunctionDef) and node.name == "decompose_mse"
    )
    assert [arg.arg for arg in decompose.args.args] == [
        "inc", "method", "repeats", "stream", "population"
    ]


def test_one_kernel_keys_every_stream():
    # the SeedSequence hash is computed in stochastics alone
    assert _readers("_philox_keys") == {"stochastics._keys_of", "stochastics.rep_streams"}
    assert {reader.split(".")[0] for reader in _readers("_keys_of")} == {"stochastics"}


def test_every_output_layout_lives_in_harness():
    # a CSV header is a string constant that starts "signal,"
    holders = {
        module for module, tree in MODULES.items() for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value.startswith("signal,")
    }
    assert holders == {"harness"}


def test_harness_keeps_no_module_level_container():
    # a population lives as long as the call that builds it; a module-level
    # dict, list or set could hold one between calls, and a fork would copy it
    containers = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    held = [
        ast.unparse(node) for node in MODULES["harness"].body
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and (
            isinstance(node.value, containers)
            or isinstance(node.value, ast.Call)
            and getattr(node.value.func, "id", None) in ("dict", "list", "set")
        )
    ]
    assert held == []


def _cli_import_modules() -> set[str]:
    """The modules a fresh interpreter holds after ``import imputebench.cli``."""
    probe = "import imputebench.cli, json, sys; print(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout))


def test_cli_import_loads_no_process_pool():
    # only --threads > 1 needs the pool, and harness._run_grid imports it
    # there; at import it would cost every serial run about 22 ms and 1.3 MB
    # any multiprocessing submodule loads the package itself
    assert {"multiprocessing", "concurrent.futures.process"} & _cli_import_modules() == set()


def test_cli_import_loads_no_numpy_random():
    # a stream loads numpy.random on its first draw; at import it would
    # move its 8-11 ms into runs that never draw, and into every import
    assert "numpy.random" not in _cli_import_modules()
