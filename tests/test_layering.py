"""The intra-package imports of symmline form no cycle.

A cycle among the modules' imports works only in the order __init__
happens to import them: importing another module of the cycle first
fails with an ImportError from a partially initialized module.
"""

import ast
from pathlib import Path

import symmline

SRC = Path(symmline.__file__).resolve().parent


def _import_graph():
    """module -> the package modules it imports by `from .x import` or
    `from . import x`, over every module but __init__."""
    graph = {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        deps = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                deps |= {node.module} if node.module else {a.name for a in node.names}
        graph[path.stem] = deps
    return graph


def _cycles(graph):
    """Every elementary cycle of graph, each once, from its least module."""
    found = []

    def extend(path):
        for nxt in sorted(graph.get(path[-1], ())):
            if nxt == path[0]:
                found.append(" -> ".join(path + [nxt]))
            elif nxt > path[0] and nxt not in path:
                extend(path + [nxt])

    for start in sorted(graph):
        extend([start])
    return found


def test_intra_package_imports_have_no_cycle():
    toy = {"a": {"b"}, "b": {"a", "c"}, "c": {"b"}, "d": {"a"}}
    assert _cycles(toy) == ["a -> b -> a", "b -> c -> b"]
    graph = _import_graph()
    assert {"errors", "_symbasis", "multipoly", "quotients"} <= graph.keys()
    cycles = _cycles(graph)
    assert not cycles, "import cycles: " + "; ".join(cycles)
