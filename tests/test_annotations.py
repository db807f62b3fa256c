"""Every public annotation of the package resolves.

The modules use ``from __future__ import annotations``, so an annotation
naming something never imported is only a string until a tool resolves
it; ``typing.get_type_hints`` then raises NameError.
"""

import importlib
import inspect
import pkgutil
import typing

import pytest

import noisyquery

# Every module of the package but __main__, which runs the CLI when imported.
MODULES = sorted(m.name for m in pkgutil.iter_modules(noisyquery.__path__) if m.name != "__main__")


def _public(module):
    """The module's own public functions and classes, and the public methods, properties and __init__ of each class."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or inspect.isclass(obj):
            yield name, obj
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_") and attr != "__init__":
                    continue
                member = member.fget if isinstance(member, property) else getattr(member, "__func__", member)
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("module_name", MODULES)
def test_public_annotations_resolve(module_name):
    module = importlib.import_module(f"noisyquery.{module_name}")
    unresolved = []
    for name, obj in _public(module):
        try:
            typing.get_type_hints(obj)
        except NameError as error:
            unresolved.append(f"{name}: {error}")
    assert unresolved == []


def test_every_module_is_checked():
    assert {"harness", "oracles", "primitives", "toplevel", "tournaments"} <= set(MODULES)
