"""Module layering: the package's relative-import graph has no cycle, and
importing the package stays light."""

import ast
import os
import subprocess
import sys
from graphlib import TopologicalSorter
from pathlib import Path

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


def test_dominators_imports_only_the_substrate():
    assert _import_graph()["dominators"] == {"errors", "graphs", "rng"}


def test_import_does_not_load_scipy_stats():
    # scipy.stats takes most of a second to import and the package needs
    # none of it.
    code = "import sys, agentspread; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert out.stdout.strip() == "False"


def test_package_does_not_import_the_benchmark_references():
    # rgg-fpp checks gen_rgg and partition_rgg against cKDTree pairs and
    # csgraph diameters; those checks are independent only while the
    # package computes both without these modules.
    imported = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert not {m for m in imported if m.startswith(("scipy.spatial", "scipy.sparse.csgraph"))}
