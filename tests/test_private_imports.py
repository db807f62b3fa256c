"""No module of the package imports another module's private names.

A private name (one with a leading underscore) is a decision its module
keeps to itself, such as the length of a named run, which only
``toplevel`` sets.  A relative ``from .x import _name`` would share it
across modules.  The underscore is the one declaration: no module keeps
an ``__all__`` list to say it a second time.
"""

import ast
from pathlib import Path

import noisyquery

SOURCES = sorted(Path(noisyquery.__file__).parent.glob("*.py"))


def _private_imports(path):
    """Each ``module: from .x import _name`` in the file, for every private name it imports from a sibling."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield f"{path.stem}: from {'.' * node.level}{node.module or ''} import {alias.name}"


def _all_assignments(path):
    """Each ``module: line`` where the file assigns ``__all__``, by any form of assignment."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name) and node.id == "__all__" and isinstance(node.ctx, ast.Store):
            yield f"{path.stem}: {node.lineno}"


def test_no_module_imports_a_private_name_of_another():
    assert [line for path in SOURCES for line in _private_imports(path)] == []


def test_no_module_declares_all():
    assert [line for path in SOURCES for line in _all_assignments(path)] == []


def test_every_module_is_read():
    assert {"harness", "oracles", "primitives", "toplevel", "tournaments"} <= {path.stem for path in SOURCES}
