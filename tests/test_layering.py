"""Module layering: the package's relative-import graph has no cycle."""

import ast
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
