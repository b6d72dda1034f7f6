"""The names the package exports and the functions the benchmark wraps."""

from __future__ import annotations

import ast
import importlib
import inspect
import pathlib

import chorprism

RUNNER = pathlib.Path(__file__).parent.parent / "benchmarks" / "run.py"


def benchmark_layers() -> list[tuple[str, str]]:
    """The ``(module, function)`` keys of ``LAYERS`` in the benchmark
    runner, read from its source without running it."""
    for node in ast.parse(RUNNER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return [ast.literal_eval(k) for k in node.value.keys]
    raise AssertionError(f"no LAYERS assignment in {RUNNER}")


def test_every_exported_name_resolves():
    assert [n for n in chorprism.__all__ if not hasattr(chorprism, n)] == []


def test_every_benchmark_layer_is_a_module_level_function():
    def defined_there(module: str, function: str) -> bool:
        fn = getattr(importlib.import_module(module), function, None)
        return inspect.isfunction(fn) and (fn.__module__, fn.__qualname__) == (module, function)

    layers = benchmark_layers()
    assert layers
    assert [layer for layer in layers if not defined_there(*layer)] == []
