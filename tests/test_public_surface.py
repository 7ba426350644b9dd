"""Every public name is one the system uses.

A name in symmline.__all__ must be reached by name from a CLI verb or a
selftest check (any top level of cli.py or selftest.py), or from the
README's library sketch, through the top-level definitions of the
package's modules: functions, classes and module-level assignments.
Code that only its own tests reach is deleted, not exported.
"""

import ast
from pathlib import Path

import symmline
from test_cli import _readme_library_sketch

SRC = Path(symmline.__file__).resolve().parent
ROOTS = ("cli.py", "selftest.py")


def _names(node):
    """The identifiers node reads, as names or as attributes."""
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def _definitions():
    """name -> the names its top-level definitions read, over every
    module of the package but __init__, which only re-exports."""
    uses = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for statement in ast.parse(path.read_text()).body:
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                defined = {statement.name}
            elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
                targets = (
                    statement.targets if isinstance(statement, ast.Assign)
                    else [statement.target]
                )
                defined = {
                    sub.id for target in targets for sub in ast.walk(target)
                    if isinstance(sub, ast.Name)
                }
            else:
                continue
            for name in defined:
                uses.setdefault(name, set()).update(_names(statement))
    return uses


def _reached(uses):
    """The names reachable from the roots through uses."""
    todo = _names(ast.parse(_readme_library_sketch()))
    for root in ROOTS:
        todo |= _names(ast.parse((SRC / root).read_text()))
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo |= uses.get(name, set())
    return reached


def test_every_public_name_is_reached():
    uses = _definitions()
    public = set(symmline.__all__)
    assert sorted(public - set(uses)) == []  # each is defined at a top level
    assert sorted(public - _reached(uses)) == []
