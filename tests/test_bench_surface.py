"""What the benchmark under ``perfbench/`` uses of the package still exists.

The benchmark imports names from the package, wraps the functions its
tracer lists by identity in every module that holds them, and times the
``_log`` walks directly with p passed by position.  A change to the
package that breaks any of that would otherwise show only when the
benchmark itself runs.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from noisyquery import primitives, toplevel
from noisyquery.oracles import BitInstance, NoisyOracle, ValueInstance

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))


def _imports(filename, source):
    """Each (file, module, name) the source imports from the package; name is None for a plain ``import``.

    A string constant that imports from the package is code the benchmark
    runs in a child interpreter, so its imports are read too.
    """
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("noisyquery"):
            yield from ((filename, node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((filename, a.name, None) for a in node.names if a.name.startswith("noisyquery"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and "from noisyquery" in node.value:
            yield from _imports(filename, node.value)


def _package_imports():
    return [row for path in SOURCES for row in _imports(path.name, path.read_text())]


def _traced():
    """The (module, function) pairs of ``perfbench/tracing.py``'s ``TRACED``, read without importing it."""
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TRACED")


def test_the_benchmark_is_read():
    assert {"layers.py", "run.py", "tracing.py", "workloads.py"} <= {path.name for path in SOURCES}
    imports = _package_imports()
    assert ("run.py", "noisyquery.harness", "parse_instance_spec") in imports  # from the child's code
    assert ("layers.py", "noisyquery.primitives", "check_bit_log") in imports


def test_every_package_import_of_the_benchmark_resolves():
    missing = []
    for filename, module, name in _package_imports():
        imported = importlib.import_module(module)
        if name is not None and not hasattr(imported, name):
            missing.append(f"{filename}: from {module} import {name}")
    assert missing == []


def test_every_traced_function_exists():
    traced = _traced()
    assert len(traced) == 10
    for module, function in traced:
        assert inspect.isfunction(getattr(importlib.import_module(f"noisyquery.{module}"), function))


def test_the_tracer_tells_the_four_walks_apart():
    # The tracer swaps a function wherever a module holds the same object,
    # so two walk names bound to one object would share a span name.
    walks = [primitives.check_bit, primitives.check_bit_log, primitives.noisy_compare, primitives.noisy_compare_log]
    assert len({id(walk) for walk in walks}) == 4
    assert toplevel.check_bit is primitives.check_bit
    assert toplevel.noisy_compare is primitives.noisy_compare


def test_the_oracle_answers_single_queries():
    assert callable(NoisyOracle.read_bit) and callable(NoisyOracle.compare)


@pytest.mark.parametrize(
    "walk,instance,args",
    [
        (primitives.check_bit_log, BitInstance(bits=(1,)), (1, -3.0, 0.25)),
        (primitives.noisy_compare_log, ValueInstance(values=(1.0, 2.0)), (1, 2, -3.0, 0.25)),
    ],
)
def test_the_log_walks_take_p_by_position(walk, instance, args):
    oracle = NoisyOracle(instance, 0.25)
    inspect.signature(walk).bind(oracle, *args)
    assert walk(oracle, *args).queries_used == oracle.queries > 0
