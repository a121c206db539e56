"""Module layering: the package's relative-import graph has no cycle, and
importing the package stays light."""

import ast
import os
import re
import subprocess
import sys
from graphlib import TopologicalSorter
from pathlib import Path

import pytest

import agentspread

PACKAGE = Path(agentspread.__file__).parent


def _import_graph() -> dict[str, set[str]]:
    """Sibling modules each module imports, at module or function level."""
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        deps = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:  # from .graphs import Graph
                    deps.add(node.module.split(".")[0])
                else:  # from . import analytics, graphs
                    deps.update(alias.name for alias in node.names)
        graph[path.stem] = deps
    return graph


def test_import_graph_has_no_cycle():
    graph = _import_graph()
    assert {"analytics", "dominators", "engine", "graphs", "policies"} <= graph.keys()
    list(TopologicalSorter(graph).static_order())  # raises CycleError on a cycle


def test_one_event_loop():
    # simulate and simulate_batch share one batch loop; a second function
    # popping the event heap would be a second copy of it.
    tree = ast.parse((PACKAGE / "engine.py").read_text())
    popping = {
        (fn.name, fn.lineno)
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "heappop"
    }
    assert len(popping) == 1, popping


def test_one_fork_runner():
    # rng.run_batch runs every forked batch: no other module forks, opens a
    # pipe or checks a replicate count of its own.
    callers = {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                callers.setdefault(name, set()).add(path.stem)
    assert callers["fork"] == callers["pipe"] == callers["replicate_count"] == {"rng"}


def test_one_stream_address():
    # rng.stream_index packs (replicate << 3) | channel: no other module
    # writes the rule out again.
    packers = {
        path.stem
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.LShift)
        and getattr(node.right, "value", None) == 3
    }
    assert packers == {"rng"}


def test_dominators_imports_only_the_substrate():
    assert _import_graph()["dominators"] == {"errors", "graphs", "rng"}


def _imported_modules() -> set[str]:
    """Absolute module names the package's source imports, at any nesting
    level: a function-level import counts too."""
    imported = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    return imported


def test_import_loads_no_scipy():
    # scipy.special alone was over half of `import agentspread`; the package
    # needs numpy only.
    code = (
        "import sys, agentspread, agentspread.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert out.stdout.strip() == "[]"


def test_sweep_and_dominance_load_no_numpy_ma():
    # np.quantile imports numpy.ma (1.2 MiB of RSS) on its first call;
    # analytics reads its order statistics without it.
    code = (
        "import sys, numpy as np\n"
        "from agentspread.analytics import ExperimentPlan, dominance_report, run_plan\n"
        "run_plan(ExperimentPlan(sizes=(8, 16, 32), replicates=20, seed=3))\n"
        "rng = np.random.default_rng(4)\n"
        "dominance_report(rng.exponential(1.0, 200), rng.exponential(2.0, 200), seed=5)\n"
        "print('numpy.ma' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert out.stdout.strip() == "False"


def test_package_source_imports_no_scipy():
    # A lazy import inside a function would keep the dependency and move
    # its load into the timed work.
    assert not {m for m in _imported_modules() if m.split(".")[0] == "scipy"}


def test_dependencies_are_the_imported_third_party_modules():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())["project"]

    def names(requirements):
        return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower() for r in requirements}

    third_party = {m.split(".")[0] for m in _imported_modules()} - set(sys.stdlib_module_names)
    assert third_party == {"numpy"}
    assert names(project["dependencies"]) == third_party
    assert "scipy" in names(project["optional-dependencies"]["test"])


def test_package_does_not_import_the_benchmark_references():
    # rgg-fpp checks gen_rgg and partition_rgg against cKDTree pairs and
    # csgraph diameters; those checks are independent only while the
    # package computes both without these modules.
    imported = _imported_modules()
    assert not {m for m in imported if m.startswith(("scipy.spatial", "scipy.sparse.csgraph"))}
