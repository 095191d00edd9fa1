"""The names bench/trace_layers.py wraps must exist in kerrshift.

The benchmark's --trace runs rebind each function listed in its LAYERS table
on the kerrshift module of that layer, and Artifact.render, by name. A name
that a refactor removes or moves breaks those runs, so it is checked here.
The table is read from the source without importing the benchmark.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACE_LAYERS = Path(__file__).resolve().parents[1] / "bench" / "trace_layers.py"


def _layers() -> dict:
    for node in ast.parse(TRACE_LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {TRACE_LAYERS}")


@pytest.mark.parametrize("layer, name", [
    (layer, name) for layer, names in _layers().items() for name in names])
def test_traced_function_resolves(layer, name):
    assert callable(getattr(importlib.import_module(f"kerrshift.{layer}"), name))


def test_traced_render_resolves():
    assert callable(importlib.import_module("kerrshift.serialize").Artifact.render)
