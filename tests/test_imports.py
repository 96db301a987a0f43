"""The package's module graph, the one regression solve and the one
amputation entry, read from the source, and what importing the CLI loads.

Each module of src/imputebench is parsed, not imported, so these tests
see the import statements and names as written. No module has an
``if TYPE_CHECKING:`` block, so every import statement is an edge of the
runtime graph. The last test imports the CLI in a fresh interpreter and
reads its sys.modules.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import imputebench

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


def _readers(name: str) -> set[str]:
    """module.function (or module for top level) of every load of a name in the package."""
    readers = set()
    for module, tree in MODULES.items():
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                loads = (n for n in ast.walk(func) if isinstance(n, ast.Name) and n.id == name)
                if any(isinstance(n.ctx, ast.Load) for n in loads):
                    readers.add(f"{module}.{func.name}")
    return readers


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


def test_cli_import_loads_no_process_pool():
    # only --threads > 1 needs the pool, and harness._run_grid imports it
    # there; at import it would cost every serial run about 22 ms and 1.3 MB
    probe = "import imputebench.cli, json, sys; print(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    # any multiprocessing submodule loads the package itself
    assert {"multiprocessing", "concurrent.futures.process"} & set(json.loads(done.stdout)) == set()
