"""The intra-package imports of symmline form no cycle, and one
function states the agreement rule.

A cycle among the modules' imports works only in the order __init__
happens to import them: importing another module of the cycle first
fails with an ImportError from a partially initialized module.

Every comparison of two routes to one answer goes through errors._agree.
The only other raises of InvariantViolationError are structural checks
inside one kernel, which compare no two answers: the four of _symbasis
and the exact-division check of oracles._bareiss.

The process-global mutable state is four names: the tables and the
expansion cache of _symbasis, the ring intern table and the CLI's
parser.  A new cache keyed by inputs would inflate warm passes and hold
memory that no metric shows, so none may appear unseen, and no function
is memoized by functools.
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


def _invariant_raises():
    """(module, innermost enclosing function) for every raise of
    InvariantViolationError in the package, in source order."""
    found = []

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "InvariantViolationError":
                found.append((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    return found


def test_only_agree_compares_two_answers():
    assert _invariant_raises() == [
        ("_symbasis", "_mul_elementary_int"),
        ("_symbasis", "_mul_elementary_int"),
        ("_symbasis", "elem_monomial"),
        ("_symbasis", "_expansion"),
        ("errors", "_agree"),
        ("oracles", "_bareiss"),
    ]


# methods that change a dict, list or set in place
_MUTATORS = {
    "add", "append", "clear", "discard", "extend", "insert",
    "pop", "popitem", "remove", "setdefault", "update",
}


def _global_state():
    """(module, name) for every module-level name that a function
    rebinds by `global` or changes in place: an item assigned or
    deleted, an attribute assigned, or a mutating method called."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        top = set()
        for node in tree.body:
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            top |= {t.id for t in targets if isinstance(t, ast.Name)}
        functions = (
            node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        for node in (inner for f in functions for inner in ast.walk(f)):
            if isinstance(node, ast.Global):
                found |= {(path.stem, name) for name in node.names}
                continue
            if isinstance(node, (ast.Subscript, ast.Attribute)):
                changed = not isinstance(node.ctx, ast.Load)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                node, changed = node.func, node.func.attr in _MUTATORS
            else:
                continue
            owner = node.value
            if changed and isinstance(owner, ast.Name) and owner.id in top:
                found.add((path.stem, owner.id))
    return found


def _functools_caches():
    """(module, line) of every use of functools.cache or lru_cache."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = {a.name for a in node.names}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = {node.attr} if node.value.id == "functools" else set()
            else:
                continue
            if names & {"cache", "lru_cache"}:
                found.append((path.stem, node.lineno))
    return found


def test_process_global_state_is_pinned():
    assert _global_state() == {
        ("_symbasis", "_TABLES"),
        ("_symbasis", "_ELEM_CACHE"),
        ("rings", "_INTERNED"),
        ("cli", "_PARSER"),
    }
    assert _functools_caches() == []
